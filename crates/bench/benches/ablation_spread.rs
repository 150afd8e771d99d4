//! Ablation: locality spreading (§3.3, second optimization).
//!
//! Tasks adjacent in creation order (BRIO-ordered points, freshly created
//! bad triangles) have overlapping neighborhoods; executing them in the
//! same round guarantees conflicts — the paper's "perverse situation where
//! the scheduler needs to reduce locality to improve performance". The
//! deterministic deal into S buckets places them in different rounds.

use galois_apps::{dmr, dt};
use galois_bench::inputs;
use galois_bench::tables::{f, Table};
use galois_core::{DetOptions, Executor, Schedule};

fn main() {
    let scale = galois_bench::scale();
    println!("== Ablation: locality spreading stride (scale {scale}) ==\n");
    let mut table = Table::new(&["app", "stride", "time-ms", "rounds", "abort-ratio"]);
    for stride in [1usize, 4, 16, 64, 256] {
        let exec = Executor::new()
            .threads(galois_bench::max_threads())
            .schedule(Schedule::Deterministic(DetOptions {
                locality_spread: stride,
                ..Default::default()
            }));
        let pts = inputs::dt_points(scale);
        let (_mesh, r) = dt::try_galois(&pts, inputs::SEED, &exec).unwrap();
        table.row(vec![
            "dt".into(),
            stride.to_string(),
            f(r.stats.elapsed.as_secs_f64() * 1e3),
            r.stats.rounds.to_string(),
            f(r.stats.abort_ratio()),
        ]);
        let mesh = inputs::dmr_mesh(scale);
        let r = dmr::try_galois(&mesh, &exec).unwrap();
        table.row(vec![
            "dmr".into(),
            stride.to_string(),
            f(r.stats.elapsed.as_secs_f64() * 1e3),
            r.stats.rounds.to_string(),
            f(r.stats.abort_ratio()),
        ]);
    }
    println!("{}", table.render());
    println!("expected shape: stride > 1 cuts the abort ratio for cavity-based apps");
}
