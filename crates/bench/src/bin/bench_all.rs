//! One-shot refresh of every checked-in BENCH file:
//!
//! ```text
//! cargo run -p galois-bench --release --bin bench_all
//! ```
//!
//! regenerates, in order:
//!
//! - `BENCH_marks.json` — the [`galois_bench::suites::micro_suite`]
//!   primitives (marks, worklist, id assignment, window),
//! - `BENCH_gen.json` — the [`galois_bench::suites::gen_suite`] input
//!   pipeline (generation, CSR build, fused full build, cache),
//! - `BENCH_rounds.json` — per-round metrics of the deterministic executor
//!   running the real bfs and mis operators at threads 1/2/4/8:
//!   `round_wall_ns` (wall time per round), `barriers_per_round` and
//!   `allocs_per_round` (heap allocations per steady-state round, counted
//!   by a wrapping `#[global_allocator]`; the round protocol — 2 crossings,
//!   0 for a window of at most 16 tasks — and the allocation-free invariant
//!   make these medians at most 2 and exactly 0).
//!
//! All three files are criterion-shim JSONL
//! (`{"name","median_ns","mean_ns","samples"}`); for the count-based rounds
//! metrics the `_ns` fields carry plain counts — see the BENCH_rounds.json
//! legend in the README. Scale the rounds inputs with `GALOIS_SCALE`.

use galois_apps::recipe::{Finished, Input};
use galois_bench::tables::rounds_metric_name;
use galois_bench::{inputs, suites, tables, App, Variant};
use galois_core::{Executor, Hooks, Probe, RoundRecord, Schedule};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocator entry point (same shape as the
/// `crates/core/tests/alloc_free.rs` harness), so `allocs_per_round` is a
/// direct measurement, not an estimate. The relaxed counter costs a few ns
/// per allocation and nothing on the allocation-free hot path it verifies.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counter is a relaxed
// atomic, so the wrapper adds no allocation or synchronization of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Snapshots the allocation counter at every round record, beside the
/// round's index and barrier count. Capacity is reserved up front so the
/// probe itself never allocates mid-run.
struct SnapProbe {
    snaps: Vec<(u64, u64, u32)>,
}

impl SnapProbe {
    fn new() -> Self {
        SnapProbe {
            snaps: Vec::with_capacity(1 << 16),
        }
    }
}

impl Probe for SnapProbe {
    // Request nothing optional: the disabled probe paths are the
    // allocation-free ones the metric is pinning down.
    fn wants_conflicts(&self) -> bool {
        false
    }
    fn wants_timing(&self) -> bool {
        false
    }
    fn conflict_top_k(&self) -> usize {
        0
    }
    fn on_round(&mut self, record: RoundRecord) {
        if self.snaps.len() < self.snaps.capacity() {
            let allocs = ALLOC_EVENTS.load(Ordering::Relaxed);
            self.snaps.push((record.round, allocs, record.barriers));
        }
    }
}

fn repo_root() -> PathBuf {
    // crates/bench -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .to_path_buf()
}

/// Truncates `path` and points the criterion shim's `CRITERION_JSON`
/// appender at it while `suite` runs.
fn refresh_criterion(
    path: &Path,
    mut config: criterion::Criterion,
    suite: fn(&mut criterion::Criterion),
) {
    let _ = std::fs::remove_file(path);
    std::env::set_var("CRITERION_JSON", path);
    suite(&mut config);
    std::env::remove_var("CRITERION_JSON");
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "no samples");
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn det_exec(app: App, threads: usize) -> Executor {
    app.executor(Schedule::deterministic(), threads)
}

/// Runs `app`'s operator under `exec` over `input`.
fn run(app: App, input: &Input, exec: &Executor, hooks: Hooks<'_>) -> Finished {
    let done = app.run(Variant::Deterministic, exec, input, hooks);
    done.unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or_else(|e| panic!("{app}: {e}"))
}

/// One JSONL record in the criterion-shim shape.
fn emit(out: &mut String, name: &str, median: f64, mean: f64, samples: usize) {
    use std::fmt::Write as _;
    writeln!(
        out,
        "{{\"name\":\"{name}\",\"median_ns\":{median:.1},\"mean_ns\":{mean:.1},\"samples\":{samples}}}"
    )
    .unwrap();
    println!("{name:<40} median {median:>12.1}  (mean {mean:.1}, n={samples})");
}

/// Per-round metrics for one app at one thread count: a probed run
/// supplies barrier and allocation counts from its round records;
/// `wall_samples` clean runs supply the per-round wall time.
fn rounds_for(app: App, input: &Input, threads: usize, wall_samples: usize, out: &mut String) {
    let mut probe = SnapProbe::new();
    let report = run(
        app,
        input,
        &det_exec(app, threads),
        Hooks {
            probe: Some(&mut probe),
            ..Hooks::default()
        },
    );
    let rounds = report.stats.rounds.max(1);
    let barriers: Vec<f64> = probe.snaps.iter().map(|s| f64::from(s.2)).collect();

    // Round r's record arrives in round r+1's serial section, so a delta
    // between consecutive snapshots covers exactly one full round. Rounds
    // 0-2 warm the high-water buffers; the later deltas are the steady
    // state. Medians keep rare legitimate allocation rounds (pass-boundary
    // re-sorts, window high-water growth) from hiding a regression of the
    // common case — and the mean is emitted alongside so those rounds stay
    // visible too.
    let allocs: Vec<f64> = probe
        .snaps
        .windows(2)
        .filter(|w| w[1].0 >= 3)
        .map(|w| (w[1].1 - w[0].1) as f64)
        .collect();
    assert!(
        allocs.len() >= 8,
        "{} t{threads}: too few steady-state rounds ({}) to measure",
        app.name(),
        allocs.len()
    );

    let walls: Vec<f64> = (0..wall_samples)
        .map(|_| {
            let r = run(app, input, &det_exec(app, threads), Hooks::default());
            r.stats.elapsed.as_nanos() as f64 / r.stats.rounds.max(1) as f64
        })
        .collect();

    let name = |metric: &str| rounds_metric_name(app.name(), threads, metric);
    emit(
        out,
        &name("round_wall_ns"),
        median(walls.clone()),
        mean(&walls),
        walls.len(),
    );
    emit(
        out,
        &name("barriers_per_round"),
        median(barriers.clone()),
        mean(&barriers),
        barriers.len(),
    );
    emit(
        out,
        &name("allocs_per_round"),
        median(allocs.clone()),
        mean(&allocs),
        allocs.len(),
    );
    println!(
        "  ({} t{threads}: {rounds} rounds, {} committed)",
        app.name(),
        report.stats.committed
    );
}

fn refresh_rounds(path: &Path) {
    let scale = galois_bench::scale();
    let wall_samples: usize = std::env::var("GALOIS_ROUNDS_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let mut out = String::new();
    for app in [App::Bfs, App::Mis] {
        let input = inputs::input(app, scale);
        for threads in [1usize, 2, 4, 8] {
            rounds_for(app, &input, threads, wall_samples, &mut out);
        }
    }
    let mut f = std::fs::File::create(path).unwrap();
    f.write_all(out.as_bytes()).unwrap();
}

fn main() {
    let root = repo_root();
    let t0 = std::time::Instant::now();
    // `rounds-only` (the CI perf-smoke mode) skips the wall-time suites and
    // re-measures just the count-based round invariants.
    let rounds_only = std::env::args().any(|a| a == "rounds-only");

    if !rounds_only {
        println!("== BENCH_marks.json (runtime primitives) ==");
        refresh_criterion(
            &root.join("BENCH_marks.json"),
            suites::micro_config(),
            suites::micro_suite,
        );

        println!("\n== BENCH_gen.json (input pipeline) ==");
        refresh_criterion(
            &root.join("BENCH_gen.json"),
            suites::gen_config(),
            suites::gen_suite,
        );
    }

    println!("\n== BENCH_rounds.json (deterministic round hot path) ==");
    let rounds_path = root.join("BENCH_rounds.json");
    refresh_rounds(&rounds_path);

    // Read the file back the way every consumer does, and surface the two
    // campaign invariants where a human refreshing baselines will see them.
    let map = tables::load_bench_jsonl(&rounds_path).expect("just-written rounds file parses");
    let mut ok = true;
    for app in ["bfs", "mis"] {
        for threads in [1usize, 2, 4, 8] {
            let barriers = map[&rounds_metric_name(app, threads, "barriers_per_round")];
            let allocs = map[&rounds_metric_name(app, threads, "allocs_per_round")];
            if barriers > 2.0 {
                println!("WARNING: {app} t{threads}: {barriers} barriers/round (expected <= 2)");
                ok = false;
            }
            if allocs != 0.0 {
                println!("WARNING: {app} t{threads}: {allocs} allocs per steady-state round (expected 0)");
                ok = false;
            }
        }
    }
    println!(
        "\nrefreshed BENCH_marks.json, BENCH_gen.json, BENCH_rounds.json in {:.1}s{}",
        t0.elapsed().as_secs_f64(),
        if ok {
            ""
        } else {
            " — INVARIANT WARNINGS ABOVE"
        }
    );
    std::process::exit(if ok { 0 } else { 1 });
}
