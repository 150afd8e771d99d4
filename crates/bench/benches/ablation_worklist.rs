//! Ablation: speculative worklist policy (LIFO vs FIFO).
//!
//! The unordered pool of Figure 1a admits any processing order; the Galois
//! runtime makes the order a pluggable policy because it can change total
//! *work* for label-correcting algorithms: LIFO bfs explores deep stale
//! paths and relabels nodes many times, FIFO approximates level order.
//! (The deterministic scheduler imposes its own order and ignores this.)

use galois_apps::{App, Variant};
use galois_bench::inputs;
use galois_bench::tables::{f, Table};
use galois_core::{Executor, Hooks, Schedule, WorklistPolicy};

fn main() {
    let scale = galois_bench::scale();
    println!("== Ablation: speculative worklist policy on bfs (scale {scale}) ==\n");
    // LIFO bfs is catastrophically redundant; use a reduced input so the
    // table finishes quickly.
    let input = inputs::input(App::Bfs, scale * 0.1);
    let mut table = Table::new(&["policy", "time-ms", "committed tasks", "work blowup"]);
    let mut baseline = None;
    for (name, policy) in [
        ("fifo", WorklistPolicy::Fifo),
        ("lifo", WorklistPolicy::Lifo),
    ] {
        let exec = Executor::new()
            .threads(galois_bench::max_threads())
            .schedule(Schedule::Speculative)
            .worklist(policy);
        let r = App::Bfs
            .run(Variant::Speculative, &exec, &input, Hooks::default())
            .unwrap()
            .unwrap();
        let committed = r.stats.committed;
        let blowup = match baseline {
            None => {
                baseline = Some(committed);
                1.0
            }
            Some(b) => committed as f64 / b as f64,
        };
        table.row(vec![
            name.into(),
            f(r.stats.elapsed.as_secs_f64() * 1e3),
            committed.to_string(),
            f(blowup),
        ]);
    }
    println!("{}", table.render());
    println!("expected shape: LIFO commits orders of magnitude more (stale) tasks");
}
