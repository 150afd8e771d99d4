//! BFS under every scheduler, with portability checks.
//!
//! Runs the same data-driven BFS operator (a) speculatively with a FIFO
//! worklist and (b) under deterministic DIG scheduling at several thread
//! counts, verifying distances against a sequential reference and showing
//! that the deterministic schedule statistics are bit-identical at every
//! thread count.
//!
//! ```text
//! cargo run --release --example bfs_portability [nodes]
//! ```

use deterministic_galois::apps::bfs;
use deterministic_galois::core::{Executor, Schedule, WorklistPolicy};
use deterministic_galois::graph::gen;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    println!("random graph: {n} nodes x 5 out-edges");
    let g = gen::uniform_random(n, 5, 42);

    let t0 = std::time::Instant::now();
    let reference = bfs::seq(&g, 0);
    println!("sequential reference: {:?}", t0.elapsed());

    for threads in [1usize, 2, 4] {
        let exec = Executor::new()
            .threads(threads)
            .schedule(Schedule::Speculative)
            .worklist(WorklistPolicy::Fifo);
        let (dist, report) = bfs::try_galois(&g, 0, &exec).unwrap();
        assert_eq!(dist, reference, "speculative distances are still exact");
        println!(
            "speculative  t={threads}: {:>10.3?}  committed={} aborted={}",
            report.stats.elapsed, report.stats.committed, report.stats.aborted
        );
    }

    let mut det_signature = None;
    for threads in [1usize, 2, 4] {
        let exec = Executor::new()
            .threads(threads)
            .schedule(Schedule::deterministic());
        let (dist, report) = bfs::try_galois(&g, 0, &exec).unwrap();
        assert_eq!(dist, reference);
        let sig = (
            report.stats.committed,
            report.stats.aborted,
            report.stats.rounds,
        );
        println!(
            "deterministic t={threads}: {:>10.3?}  committed={} aborted={} rounds={}",
            report.stats.elapsed, sig.0, sig.1, sig.2
        );
        match &det_signature {
            None => det_signature = Some(sig),
            Some(prev) => assert_eq!(
                &sig, prev,
                "portability: the deterministic schedule itself is identical"
            ),
        }
    }
    println!("\nportability verified: deterministic commits/aborts/rounds are");
    println!("bit-identical across thread counts (speculative ones are not).");
}
