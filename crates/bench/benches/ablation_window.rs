//! Ablation: the adaptive window vs fixed window sizes (§3.2).
//!
//! The paper's parameter-freedom argument: scheduler performance "depends
//! critically on the window size", and the best fixed size varies by
//! application — so systems with a tunable round size (CoreDet, Kendo,
//! PBBS) invite output-changing tuning. The adaptive policy should track
//! the best fixed size without a knob.

use galois_apps::{App, Variant};
use galois_bench::inputs;
use galois_bench::tables::{f, Table};
use galois_core::{DetOptions, Executor, Hooks, Schedule, WindowPolicy};

fn det_with(window: WindowPolicy, spread: usize) -> Executor {
    Executor::new()
        .threads(galois_bench::max_threads())
        .schedule(Schedule::Deterministic(DetOptions {
            window,
            locality_spread: spread,
            ..Default::default()
        }))
}

fn fixed(size: usize) -> WindowPolicy {
    WindowPolicy {
        min_window: size,
        max_window: size,
        ..WindowPolicy::default()
    }
}

fn main() {
    let scale = galois_bench::scale();
    println!("== Ablation: adaptive vs fixed DIG windows (scale {scale}) ==\n");
    let mut table = Table::new(&["app", "window", "time-ms", "rounds", "abort-ratio"]);

    for app in [App::Mis, App::Dmr] {
        let input = inputs::input(app, scale);
        let spread = if app == App::Dmr { 16 } else { 1 };
        let mut run = |window: &str, exec: &Executor| {
            let r = app
                .run(Variant::Deterministic, exec, &input, Hooks::default())
                .unwrap()
                .unwrap();
            table.row(vec![
                app.name().into(),
                window.into(),
                f(r.stats.elapsed.as_secs_f64() * 1e3),
                r.stats.rounds.to_string(),
                f(r.stats.abort_ratio()),
            ]);
        };
        run("adaptive", &det_with(WindowPolicy::default(), spread));
        for size in [64usize, 1024, 16 * 1024, 256 * 1024] {
            run(&format!("fixed {size}"), &det_with(fixed(size), spread));
        }
    }
    println!("{}", table.render());
    println!(
        "expected shape: tiny fixed windows explode the round count; huge ones\n\
         explode the abort ratio; the adaptive policy lands near the best fixed\n\
         size for both applications without a tunable parameter"
    );
}
