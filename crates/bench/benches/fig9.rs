//! Figure 9: performance of g-n and g-d relative to the handwritten PBBS
//! variants, plus the paper's headline medians.
//!
//! Paper (§5.3): at max threads the median of t_pbbs/t_g-n is 2.4× and of
//! t_pbbs/t_g-d is 0.62× (0.70× excluding mis); g-n over g-d is 4.2×. The
//! table reports mean / max / 1-thread / max-thread ratios per machine.

use galois_bench::sweep::{run_sweep, thread_points};
use galois_bench::tables::{f, median, Table};
use galois_bench::{variants, App, Variant, PAPER_APPS};
use galois_runtime::simtime::MachineProfile;

fn main() {
    let scale = galois_bench::scale();
    println!("== Figure 9: performance relative to the PBBS variant (scale {scale}) ==");
    println!("(t_pbbs(p) / t_var(p); >1 means the variant is faster than PBBS)\n");
    let data = run_sweep(scale, false);

    let mut table = Table::new(&["machine", "app", "variant", "mean", "max", "I1", "Imax"]);
    let mut med_gn_imax = Vec::new();
    let mut med_gd_imax = Vec::new();
    let mut med_gd_imax_no_mis = Vec::new();
    let mut med_gn_over_gd = Vec::new();

    for machine in &MachineProfile::ALL {
        let pts = thread_points(machine);
        let imax = *pts.last().unwrap();
        for app in PAPER_APPS {
            if !variants(app).contains(&Variant::Pbbs) {
                continue; // pfp has no PBBS comparator
            }
            for variant in [Variant::Speculative, Variant::Deterministic] {
                let ratios: Vec<f64> = pts
                    .iter()
                    .filter_map(|&p| data.relative_to_pbbs(app, variant, machine.name, p))
                    .collect();
                let i1 = data
                    .relative_to_pbbs(app, variant, machine.name, 1)
                    .unwrap();
                let rmax = data
                    .relative_to_pbbs(app, variant, machine.name, imax)
                    .unwrap();
                let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
                let max = ratios.iter().copied().fold(0.0, f64::max);
                table.row(vec![
                    machine.name.into(),
                    app.name().into(),
                    variant.label().to_string(),
                    f(mean),
                    f(max),
                    f(i1),
                    f(rmax),
                ]);
                match variant {
                    Variant::Speculative => med_gn_imax.push(rmax),
                    Variant::Deterministic => {
                        med_gd_imax.push(rmax);
                        if app != App::Mis {
                            med_gd_imax_no_mis.push(rmax);
                        }
                    }
                    _ => {}
                }
            }
            let gn = data.times[&(app, Variant::Speculative, machine.name, imax)];
            let gd = data.times[&(app, Variant::Deterministic, machine.name, imax)];
            med_gn_over_gd.push(gd / gn);
        }
        // pfp contributes to the g-n vs g-d comparison only.
        let pts_last = imax;
        let gn = data.times[&(App::Pfp, Variant::Speculative, machine.name, pts_last)];
        let gd = data.times[&(App::Pfp, Variant::Deterministic, machine.name, pts_last)];
        med_gn_over_gd.push(gd / gn);
    }
    println!("{}", table.render());
    println!("medians at max threads:");
    println!(
        "  g-n vs pbbs: {}x   (paper: 2.4x)",
        f(median(&med_gn_imax))
    );
    println!(
        "  g-d vs pbbs: {}x   (paper: 0.62x; 0.70x without mis -> here {}x)",
        f(median(&med_gd_imax)),
        f(median(&med_gd_imax_no_mis))
    );
    println!(
        "  g-n vs g-d:  {}x   (paper: 4.2x)",
        f(median(&med_gn_over_gd))
    );
}
