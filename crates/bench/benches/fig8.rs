//! Figure 8: sequential baseline times.
//!
//! The paper's table lists, per app and machine, the sequential baseline
//! its speedups are measured against (a Cilk bfs, hi_pr for pfp, the best
//! suite variant elsewhere). Here: measured one-thread times of every
//! variant on this host, then the baseline Figures 7, 9 and 12 divide by
//! ([`galois_bench::sweep::baseline`]): the `seq` row (the operator under
//! the serial executor), except for pfp, whose baseline is a `hi_pr` row —
//! the hand-written preflow-push timed on the same network.

use galois_bench::drivers::Opts;
use galois_bench::sweep::baseline;
use galois_bench::tables::{f, Table};
use galois_bench::{measure, scale, variants, Variant, PAPER_APPS};

fn main() {
    let scale = scale();
    println!("== Figure 8: one-thread times in milliseconds (scale {scale}) ==\n");
    let mut table = Table::new(&["app", "variant", "time-ms"]);
    for app in PAPER_APPS {
        let mut seq = None;
        for variant in variants(app) {
            let Some(m) = measure(app, variant, 1, scale, Opts::default()) else {
                continue;
            };
            let ms = m.stats.elapsed.as_secs_f64() * 1e3;
            table.row(vec![app.name().into(), variant.label().into(), f(ms)]);
            if variant == Variant::Serial {
                seq = Some(m);
            }
        }
        let seq = seq.expect("every app has a seq variant");
        let (label, ns) = baseline(app, scale, &seq);
        let ms = ns / 1e6;
        if label != Variant::Serial.label() {
            table.row(vec![app.name().into(), label.into(), f(ms)]);
        }
        table.row(vec![
            app.name().into(),
            format!("BASELINE ({label})"),
            f(ms),
        ]);
    }
    println!("{}", table.render());
}
