//! Figure 11: memory requests satisfied from DRAM, per variant.
//!
//! Paper result (§5.4): the non-deterministic variants have far fewer DRAM
//! requests than the deterministic ones, because DIG scheduling separates a
//! task's inspect and execute phases by a window of other tasks, destroying
//! intra-task locality. Reproduced by replaying recorded abstract-location
//! access streams through the cache hierarchy (DESIGN.md, substitution 4).
//! The PBBS variants are omitted (no access recording; their round-based
//! locality behaviour is qualitatively that of g-d).

use cache_sim::{Hierarchy, HierarchyConfig};
use galois_bench::drivers::Opts;
use galois_bench::tables::{f, Table};
use galois_bench::{max_threads, measure, scale, Variant, PAPER_APPS};

fn main() {
    let scale = scale();
    let threads = max_threads();
    println!(
        "== Figure 11: DRAM requests by variant ({threads}-thread streams, scale {scale}) ==\n"
    );
    let mut table = Table::new(&[
        "app", "variant", "accesses", "l1-hit%", "l3-hit%", "dram", "dram%",
    ]);
    for app in PAPER_APPS {
        for variant in [Variant::Speculative, Variant::Deterministic] {
            let Some(m) = measure(
                app,
                variant,
                threads,
                scale,
                Opts {
                    access: true,
                    ..Default::default()
                },
            ) else {
                continue;
            };
            let streams = m.accesses.expect("access recording requested");
            let mut h = Hierarchy::new(streams.len(), HierarchyConfig::default());
            let stats = h.replay(&streams);
            table.row(vec![
                app.name().into(),
                variant.label().to_string(),
                stats.accesses.to_string(),
                f(100.0 * stats.l1_hits as f64 / stats.accesses.max(1) as f64),
                f(100.0 * stats.l3_hits as f64 / stats.accesses.max(1) as f64),
                stats.dram.to_string(),
                f(100.0 * stats.dram_rate()),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "expected shape: g-d issues more accesses (inspect + execute touch the\n\
         neighborhood twice, a window apart) and misses to DRAM more often"
    );
}
