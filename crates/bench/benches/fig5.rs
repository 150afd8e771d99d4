//! Figure 5: atomic-update rates.
//!
//! Paper point (§5.1): the PARSEC benchmarks perform orders of magnitude
//! fewer atomic updates than the irregular PBBS/Lonestar programs —
//! blackscholes ≈ 1 update/µs at 40 threads vs ≈ 100/µs for mis g-n. The
//! irregular rows are measured; the PARSEC-like rows come analytically from
//! the kernel instruction streams (DESIGN.md, substitution 3).

use coredet_sim::kernels::Kernel;
use galois_bench::drivers::Opts;
use galois_bench::tables::{f, Table};
use galois_bench::{max_threads, measure, scale, variants, Variant, PAPER_APPS};

fn main() {
    let scale = scale();
    let threads_hi = max_threads();
    println!("== Figure 5: atomic updates per microsecond (scale {scale}) ==\n");
    let mut table = Table::new(&["program", "variant", "threads", "atomics", "atomics/us"]);
    for k in Kernel::ALL.iter().filter(|k| k.is_parsec()) {
        for threads in [1usize, 40] {
            let streams = k.streams(threads, scale);
            let atomics: u64 = streams.iter().map(|s| s.syncs()).sum();
            table.row(vec![
                k.name().into(),
                "parsec".into(),
                threads.to_string(),
                atomics.to_string(),
                f(k.atomic_rate_per_us(threads)),
            ]);
        }
    }
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
                    m.atomic_updates.to_string(),
                    f(m.atomic_rate_per_us()),
                ]);
            }
        }
    }
    println!("{}", table.render());
    println!("expected shape: parsec rows orders of magnitude below the irregular rows");
}
