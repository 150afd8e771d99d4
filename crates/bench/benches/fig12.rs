//! Figure 12: how well a linear model in the memory-traffic ratio explains
//! the efficiency differences between variants.
//!
//! Paper model: `eff_var = B0 + B1 * (PC_ref / PC_var) * eff_ref` with g-n
//! as the reference; a good fit supports the claim that lost locality, not
//! scheduler instructions, explains most of the deterministic slowdown.
//!
//! Reproduced per application: within one application, the DRAM-traffic
//! ratio is a property of the variant pair, and the model predicts the
//! deterministic efficiency from the non-deterministic one across machines
//! and thread counts. (A pooled fit across applications mostly measures
//! between-app variance, which the model does not claim to explain.)

use cache_sim::regression::fit;
use cache_sim::{Hierarchy, HierarchyConfig};
use galois_bench::drivers::Opts;
use galois_bench::sweep::{run_sweep, thread_points};
use galois_bench::tables::{f, median, Table};
use galois_bench::{max_threads, measure, Variant, PAPER_APPS};
use galois_runtime::simtime::MachineProfile;

fn main() {
    let scale = galois_bench::scale();
    let threads = max_threads();
    println!("== Figure 12: linear fit of efficiency vs DRAM-traffic ratio (scale {scale}) ==\n");

    // DRAM counts per app/variant from recorded access streams.
    let mut dram = std::collections::HashMap::new();
    for app in PAPER_APPS {
        for variant in [Variant::GaloisNondet, Variant::GaloisDet] {
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
            let streams = m.accesses.expect("requested");
            let mut h = Hierarchy::new(streams.len(), HierarchyConfig::default());
            let stats = h.replay(&streams);
            dram.insert((app, variant), stats.dram.max(1) as f64);
        }
    }

    let data = run_sweep(scale, false);
    let mut table = Table::new(&["app", "dram_gn/dram_gd", "samples", "B0", "B1", "R^2"]);
    let mut r2s = Vec::new();
    for app in PAPER_APPS {
        let (Some(&pc_ref), Some(&pc_var)) = (
            dram.get(&(app, Variant::GaloisNondet)),
            dram.get(&(app, Variant::GaloisDet)),
        ) else {
            continue;
        };
        let ratio = pc_ref / pc_var;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for machine in &MachineProfile::ALL {
            for &p in &thread_points(machine) {
                let (Some(s_ref), Some(s_var)) = (
                    data.speedup((app, Variant::GaloisNondet, machine.name, p)),
                    data.speedup((app, Variant::GaloisDet, machine.name, p)),
                ) else {
                    continue;
                };
                xs.push(ratio * s_ref / p as f64);
                ys.push(s_var / p as f64);
            }
        }
        match fit(&xs, &ys) {
            Some(fitted) => {
                r2s.push(fitted.r2);
                table.row(vec![
                    app.name().into(),
                    f(ratio),
                    xs.len().to_string(),
                    f(fitted.b0),
                    f(fitted.b1),
                    f(fitted.r2),
                ]);
            }
            None => table.row(vec![
                app.name().into(),
                f(ratio),
                xs.len().to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    println!("{}", table.render());
    println!("median per-application R^2: {}", f(median(&r2s)));
    println!(
        "\nnote (DESIGN.md, substitution 1/4): the paper fits hardware samples in\n\
         which locality effects and efficiency covary on real memory systems;\n\
         this reproduction's virtual-time model holds per-task costs fixed, so\n\
         most within-app efficiency variance here comes from the modelled round\n\
         structure, not from the cache model — the fits above are therefore\n\
         weaker than the paper's by construction. The locality claim itself is\n\
         carried by Figure 11 (deterministic variants reach DRAM more) and the\n\
         positive slopes (B1 > 0) here."
    );
}
