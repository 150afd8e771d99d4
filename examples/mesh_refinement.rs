//! End-to-end Delaunay pipeline: triangulate random points, then refine all
//! triangles to a 30° minimum angle — the paper's dt and dmr benchmarks
//! chained together.
//!
//! The scheduler is chosen on the command line (the paper's "command-line
//! parameter" for on-demand determinism):
//!
//! ```text
//! cargo run --release --example mesh_refinement -- [spec|det|serial] [points] [threads]
//! ```

use deterministic_galois::apps::{dmr, dt};
use deterministic_galois::core::{DetOptions, Executor, Schedule};
use deterministic_galois::geometry::point::random_points;
use deterministic_galois::mesh::check;

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "det".into());
    let n: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);
    let threads: usize = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let schedule = match mode.as_str() {
        "spec" => Schedule::Speculative,
        "serial" => Schedule::Serial,
        "det" => Schedule::Deterministic(DetOptions {
            locality_spread: 16,
            ..Default::default()
        }),
        other => {
            eprintln!("unknown mode {other}; use spec|det|serial");
            std::process::exit(2);
        }
    };
    let exec = Executor::new().threads(threads).schedule(schedule);

    println!("triangulating {n} random points ({mode}, {threads} threads)...");
    let points = random_points(n, 7);
    let t0 = std::time::Instant::now();
    let (mesh, report) = dt::try_galois(&points, 7, &exec).unwrap();
    println!(
        "  {} triangles in {:?} ({} tasks, {} aborts, {} rounds)",
        mesh.num_tris_alive(),
        t0.elapsed(),
        report.stats.committed,
        report.stats.aborted,
        report.stats.rounds,
    );
    check::validate(&mesh).expect("structurally valid");
    check::check_delaunay(&mesh).expect("Delaunay");

    // The dmr benchmark proper starts from a purpose-built input mesh with
    // refinement headroom; build one over the same points.
    let mesh = dmr::make_input(n, 7);
    let before = check::quality(&mesh);
    println!(
        "refining: {} triangles, {} bad, min angle {:.2}deg",
        before.triangles, before.bad, before.min_angle_deg
    );
    let t0 = std::time::Instant::now();
    let report = dmr::try_galois(&mesh, &exec).unwrap();
    let after = check::quality(&mesh);
    println!(
        "  -> {} triangles, {} bad, min angle {:.2}deg in {:?} ({} refinements, {} aborts)",
        after.triangles,
        after.bad,
        after.min_angle_deg,
        t0.elapsed(),
        report.stats.committed,
        report.stats.aborted,
    );
    check::validate(&mesh).expect("still valid");
    check::check_delaunay(&mesh).expect("still Delaunay");
    assert_eq!(after.bad, 0, "all refinable bad triangles fixed");
    println!("mesh is valid, Delaunay, and fully refined.");
}
