//! Figure 4: task execution rates, abort ratios, and round counts.
//!
//! Paper rows: each application × {g-n, g-d, pbbs} at 1 thread and at the
//! maximum thread count, reporting committed tasks/µs, the abort ratio, and
//! (for the deterministic variants) the number of rounds. Expected shape
//! (§5.1): g-n abort ratios essentially zero; deterministic variants abort
//! more because each round inspects more tasks than threads; irregular
//! tasks are microsecond-scale.

use galois_bench::drivers::Opts;
use galois_bench::tables::{f, Table};
use galois_bench::{max_threads, measure, scale, variants, Variant, PAPER_APPS};

fn main() {
    let scale = scale();
    let threads_hi = max_threads();
    println!("== Figure 4: task rates, abort ratios, rounds (scale {scale}) ==");
    println!(
        "(rates at {threads_hi} oversubscribed threads on this 1-core host are\n\
         wall-clock artifacts; abort ratios and rounds are exact schedule facts)\n"
    );
    let mut table = Table::new(&[
        "app",
        "variant",
        "threads",
        "committed",
        "tasks/us",
        "abort-ratio",
        "rounds",
    ]);
    for app in PAPER_APPS {
        for &variant in variants(app) {
            if variant == Variant::Seq {
                continue;
            }
            for threads in [1usize, threads_hi] {
                let Some(m) = measure(app, variant, threads, scale, Opts::default()) else {
                    continue;
                };
                table.row(vec![
                    app.name().into(),
                    variant.to_string(),
                    threads.to_string(),
                    m.committed.to_string(),
                    f(m.commit_rate_per_us()),
                    f(m.abort_ratio()),
                    m.rounds.to_string(),
                ]);
            }
        }
    }
    println!("{}", table.render());
}
