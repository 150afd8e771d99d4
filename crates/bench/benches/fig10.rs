//! Figure 10: the continuation optimization (§3.3) ablation.
//!
//! Paper result: disabling the continuation optimization — so the commit
//! phase re-executes each task's prefix up to the failsafe point — costs a
//! median 1.14× across the deterministic programs, with the benefit
//! concentrated in the more complicated dmr and dt (whose inspect phases,
//! the location walk and cavity growth, are the expensive prefix).
//!
//! Measurement: interleaved with/without pairs per application (single-core
//! wall time at one thread drifts more between separate sweeps than the
//! effect size, so pairs are run back-to-back and the median is reported).

use galois_bench::drivers::{measure, Opts, PAPER_APPS};
use galois_bench::tables::{f, median, Table};
use galois_bench::Variant;

const REPS: usize = 5;

fn main() {
    let scale = galois_bench::scale();
    println!("== Figure 10: g-d without the continuation optimization (scale {scale}) ==\n");
    let mut table = Table::new(&["app", "median t(no-cont)/t(cont)", "per-rep ratios"]);
    let mut all_medians = Vec::new();
    for app in PAPER_APPS {
        let mut ratios = Vec::new();
        for _ in 0..REPS {
            let with = measure(app, Variant::Deterministic, 1, scale, Opts::default())
                .expect("g-d supported everywhere");
            let without = measure(
                app,
                Variant::Deterministic,
                1,
                scale,
                Opts {
                    no_continuation: true,
                    ..Default::default()
                },
            )
            .expect("g-d supported everywhere");
            ratios.push(without.stats.elapsed.as_secs_f64() / with.stats.elapsed.as_secs_f64());
        }
        let med = median(&ratios);
        all_medians.push(med);
        table.row(vec![
            app.name().into(),
            f(med),
            ratios.iter().map(|r| f(*r)).collect::<Vec<_>>().join(" "),
        ]);
    }
    println!("{}", table.render());
    println!(
        "median improvement across applications: {}x (paper: 1.14x, significant\n\
         only for dmr and dt; ~1.0x elsewhere is expected — their operators\n\
         have cheap prefixes, so there is nothing to skip)",
        f(median(&all_medians))
    );
}
