//! Figure 7: speedup of g-n, g-d and PBBS over the best sequential
//! baseline, across thread counts and machines.
//!
//! Paper result (§5.3): g-n is the best variant overall (median 2.4× over
//! PBBS at max threads), with ≥15× speedup on m4x10 for four of five apps;
//! deterministic variants scale substantially worse; numa8x4 shows a cliff
//! past 8 threads. Speedups here come from one-thread traces replayed
//! through the virtual-time machine model (DESIGN.md, substitution 1).

use galois_bench::sweep::{run_sweep, thread_points};
use galois_bench::tables::{f, load_bench_jsonl, rounds_metric_name, Table};
use galois_bench::{variants, Variant, PAPER_APPS};
use galois_runtime::simtime::MachineProfile;

/// The checked-in `BENCH_rounds.json` baselines, keyed by the canonical
/// `rounds/{app}_t{threads}_{metric}` names. Entries that are missing or
/// renamed are reported as "missing", never skipped — a rename in the
/// bench suite must show up here as a hole, not as a shorter table.
fn print_rounds_baselines() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .join("BENCH_rounds.json");
    println!("-- checked-in round baselines ({}) --", path.display());
    let map = match load_bench_jsonl(&path) {
        Ok(map) => map,
        Err(e) => {
            println!("unavailable: {e}");
            println!("regenerate with: cargo run -p galois-bench --release --bin bench_all\n");
            return;
        }
    };
    let mut table = Table::new(&["app", "threads", "round wall (ns)", "barriers", "allocs"]);
    let mut missing = Vec::new();
    for app in ["bfs", "mis"] {
        for threads in [1usize, 2, 4, 8] {
            let mut cell = |metric: &str| {
                let name = rounds_metric_name(app, threads, metric);
                match map.get(&name) {
                    Some(v) => f(*v),
                    None => {
                        missing.push(name);
                        "missing".into()
                    }
                }
            };
            table.row(vec![
                app.into(),
                threads.to_string(),
                cell("round_wall_ns"),
                cell("barriers_per_round"),
                cell("allocs_per_round"),
            ]);
        }
    }
    println!("{}", table.render());
    if !missing.is_empty() {
        println!(
            "{} baseline entr{} missing from {}:",
            missing.len(),
            if missing.len() == 1 { "y" } else { "ies" },
            path.display()
        );
        for name in &missing {
            println!("  {name}");
        }
        println!("regenerate with: cargo run -p galois-bench --release --bin bench_all");
    }
    println!();
}

fn main() {
    let scale = galois_bench::scale();
    println!("== Figure 7: speedup vs best sequential baseline (scale {scale}) ==\n");
    let data = run_sweep(scale, false);
    for machine in &MachineProfile::ALL {
        println!("-- machine {} --", machine.name);
        let pts = thread_points(machine);
        let mut header: Vec<String> = vec!["app".into(), "variant".into()];
        header.extend(pts.iter().map(|p| format!("p={p}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(&header_refs);
        for app in PAPER_APPS {
            for &variant in variants(app) {
                if variant == Variant::Seq {
                    continue;
                }
                let mut row = vec![app.name().to_string(), variant.to_string()];
                for &p in &pts {
                    let s = data
                        .speedup((app, variant, machine.name, p))
                        .map(f)
                        .unwrap_or_else(|| "-".into());
                    row.push(s);
                }
                table.row(row);
            }
        }
        println!("{}", table.render());
    }

    // Why the round-based variants flatten: the leader-serial share of the
    // round work is the Amdahl term no thread count removes. Read off the
    // recorded one-thread traces of the bulk-synchronous variants.
    println!("-- leader-serial fraction of round work (from 1-thread traces) --");
    let mut serial = Table::new(&["app", "variant", "serial fraction"]);
    for app in PAPER_APPS {
        for &variant in variants(app) {
            // Every (app, variant) gets a row: a measurement gap renders as
            // "-" instead of silently vanishing from the table.
            let frac = data
                .one_thread
                .get(&(app, variant))
                .and_then(|m| m.serial_fraction());
            serial.row(vec![
                app.name().into(),
                variant.to_string(),
                frac.map(f).unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    println!("{}", serial.render());

    print_rounds_baselines();

    println!(
        "expected shape: g-n scales best (near-linear until the NUMA cliff on\n\
         numa8x4); g-d and pbbs flatten as rounds and barriers dominate, and\n\
         the serial-fraction table above bounds their asymptotic speedup"
    );
}
