//! Figure 8: sequential baseline times.
//!
//! The paper's table lists, per app and machine, the best one-thread time
//! of any variant (a Cilk bfs, hi_pr for pfp, the best suite variant
//! elsewhere). Here: measured one-thread times of every variant on this
//! host; the minimum per app is the baseline used by Figures 7 and 9.

use galois_bench::drivers::Opts;
use galois_bench::tables::{f, Table};
use galois_bench::{measure, scale, variants, PAPER_APPS};

fn main() {
    let scale = scale();
    println!("== Figure 8: one-thread times in milliseconds (scale {scale}) ==\n");
    let mut table = Table::new(&["app", "variant", "time-ms"]);
    for app in PAPER_APPS {
        let mut best: Option<(String, f64)> = None;
        for &variant in variants(app) {
            let Some(m) = measure(app, variant, 1, scale, Opts::default()) else {
                continue;
            };
            let ms = m.elapsed.as_secs_f64() * 1e3;
            table.row(vec![app.name().into(), variant.to_string(), f(ms)]);
            if best.as_ref().is_none_or(|(_, b)| ms < *b) {
                best = Some((variant.to_string(), ms));
            }
        }
        let (v, ms) = best.expect("every app has variants");
        table.row(vec![app.name().into(), format!("BASELINE ({v})"), f(ms)]);
    }
    println!("{}", table.render());
}
