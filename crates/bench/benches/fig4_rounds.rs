//! Figure 4 companion: the per-round anatomy behind the abort ratios.
//!
//! Figure 4 reports *aggregate* abort ratios; this driver drills into where
//! they come from. For each application's deterministic (g-d) variant it
//! records a [`galois_core::RoundLog`] and prints the per-round schedule —
//! adaptive window, attempts, commits, and the abort attribution (the
//! abstract locations whose `writeMarkMax` contention serialized the
//! round) — plus the canonical JSONL emission that is byte-identical across
//! thread counts.
//!
//! ```text
//! cargo bench -p galois-bench --bench fig4_rounds
//! GALOIS_ROUNDS_JSONL=dir cargo bench -p galois-bench --bench fig4_rounds
//! ```
//!
//! With `GALOIS_ROUNDS_JSONL=<dir>`, each app's canonical round log is also
//! written to `<dir>/<app>-rounds.jsonl` for offline diffing.

use galois_bench::drivers::Opts;
use galois_bench::tables::{f, round_log_table};
use galois_bench::{measure, scale, Variant, PAPER_APPS};

const SHOW_ROUNDS: usize = 12;

fn main() {
    let scale = scale();
    let jsonl_dir = std::env::var("GALOIS_ROUNDS_JSONL").ok();
    let opts = Opts {
        round_log: true,
        ..Default::default()
    };
    println!("== Figure 4 companion: per-round schedule logs, g-d (scale {scale}) ==\n");
    for app in PAPER_APPS {
        let Some(m) = measure(app, Variant::GaloisDet, 2, scale, opts) else {
            continue;
        };
        let log = m.round_log.as_ref().expect("round log requested");
        let total_attempted: u64 = log.records().iter().map(|r| r.attempted).sum();
        let total_committed: u64 = log.records().iter().map(|r| r.committed).sum();
        println!(
            "-- {}: {} rounds, {} attempts for {} commits (overall commit ratio {}) --",
            app.name(),
            log.len(),
            total_attempted,
            total_committed,
            f(total_committed as f64 / (total_attempted as f64).max(1.0)),
        );
        // The first rounds carry the adaptive-window ramp; the tail repeats.
        let mut table = round_log_table(log);
        if log.len() > SHOW_ROUNDS {
            table = round_log_table_prefix(log, SHOW_ROUNDS);
            println!("(first {SHOW_ROUNDS} of {} rounds)", log.len());
        }
        println!("{}", table.render());
        if let Some(dir) = &jsonl_dir {
            let path = format!("{dir}/{}-rounds.jsonl", app.name());
            std::fs::write(&path, log.canonical_jsonl()).expect("write JSONL");
            println!("canonical JSONL -> {path}\n");
        }
    }
    println!(
        "The schedule-derived columns (window/attempted/committed/failed and\n\
         the conflict attribution) are identical at any thread count; only\n\
         the *-us timing columns are machine facts."
    );
}

/// A prefix view of the log, so long runs stay readable.
fn round_log_table_prefix(log: &galois_core::RoundLog, n: usize) -> galois_bench::tables::Table {
    let mut head = galois_core::RoundLog::new();
    for r in log.records().iter().take(n) {
        galois_core::Probe::on_round(&mut head, r.clone());
    }
    round_log_table(&head)
}
