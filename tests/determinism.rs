//! Cross-crate portability tests: the deterministic scheduler must produce
//! bit-identical outputs *and schedules* for every thread count, for every
//! application (the paper's portability property). Thread counts include
//! oversubscribed ones — see [`common::THREAD_COUNTS`].

mod common;

use common::{assert_portable, assert_portable_over, det_executor, det_executor_spread};
use deterministic_galois::apps::{bfs, dmr, dt, mis, pfp};
use deterministic_galois::core::{Executor, Schedule};
use deterministic_galois::geometry::point::random_points;
use deterministic_galois::graph::{gen, FlowNetwork};
use deterministic_galois::mesh::check;

#[test]
fn bfs_schedule_and_output_portable() {
    let g = gen::uniform_random(3_000, 5, 11);
    assert_portable("bfs", |threads| {
        let (dist, report) = bfs::try_galois(&g, 0, &det_executor(threads)).unwrap();
        (
            dist,
            report.stats.committed,
            report.stats.aborted,
            report.stats.rounds,
        )
    });
}

#[test]
fn mis_set_portable() {
    let g = gen::uniform_random_undirected(2_000, 4, 12);
    assert_portable("mis", |threads| {
        let (flags, report) = mis::try_galois(&g, &det_executor(threads)).unwrap();
        mis::verify(&g, &flags).unwrap();
        (flags, report.stats.committed, report.stats.rounds)
    });
}

#[test]
fn dt_geometry_portable() {
    let pts = random_points(600, 13);
    assert_portable("dt", |threads| {
        let (mesh, _) = dt::try_galois(&pts, 3, &det_executor(threads)).unwrap();
        check::check_delaunay(&mesh).unwrap();
        check::canonical_triangles(&mesh)
    });
}

#[test]
fn dmr_geometry_portable_with_locality_spread() {
    // The generated g-d uses the §3.3 optimizations, including locality
    // spreading; determinism must hold with them enabled.
    assert_portable("dmr", |threads| {
        let mesh = dmr::make_input(150, 14);
        dmr::try_galois(&mesh, &det_executor_spread(threads, 16)).unwrap();
        check::validate(&mesh).unwrap();
        check::check_delaunay(&mesh).unwrap();
        assert_eq!(check::quality(&mesh).bad, 0);
        check::canonical_triangles(&mesh)
    });
}

#[test]
fn pfp_flow_and_schedule_portable() {
    let net = FlowNetwork::random(128, 4, 100, 15);
    assert_portable("pfp", |threads| {
        let (flow, report) = pfp::try_galois(&net, &det_executor(threads)).unwrap();
        (flow, report.stats.committed, report.bouts)
    });
}

#[test]
fn input_generators_portable_across_build_threads() {
    // The parallel input pipeline makes the same promise as the executors:
    // bit-identical output at every thread count, including oversubscribed
    // ones. The signature is the whole graph (offsets + targets), so any
    // reordering or dropped edge fails the sweep.
    assert_portable("gen::uniform_random", |threads| {
        gen::uniform_random_parallel(2_000, 5, 21, threads)
    });
    assert_portable("gen::uniform_random_undirected", |threads| {
        gen::uniform_random_undirected_parallel(1_500, 4, 21, threads)
    });
    // Above the sequential-fallback clamps, so the parallel generation,
    // sort and CSR paths run; 1 thread is the sequential oracle.
    assert_portable_over(
        "gen::uniform_random_undirected (above clamp)",
        &[1, 2, 3, 5, 8],
        |threads| gen::uniform_random_undirected_parallel(20_000, 4, 21, threads),
    );
    assert_portable("FlowNetwork::random_edges", |threads| {
        FlowNetwork::random_edges_parallel(256, 4, 100, 21, threads)
    });
}

#[test]
fn bfs_on_parallel_built_input_matches_sequential_input_build() {
    // End to end: input built at any thread count feeds the deterministic
    // executor the same graph, so distances and schedule counters match a
    // run on the sequentially built input exactly.
    let oracle_graph = gen::uniform_random(3_000, 5, 11);
    let (oracle_dist, oracle_report) = bfs::try_galois(&oracle_graph, 0, &det_executor(2)).unwrap();
    assert_portable("bfs on parallel-built input", |threads| {
        let g = gen::uniform_random_parallel(3_000, 5, 11, threads);
        let (dist, report) = bfs::try_galois(&g, 0, &det_executor(2)).unwrap();
        assert_eq!(
            dist, oracle_dist,
            "distances moved (build threads {threads})"
        );
        assert_eq!(report.stats.committed, oracle_report.stats.committed);
        (dist, report.stats.rounds)
    });
}

#[test]
fn deterministic_run_is_repeatable_within_thread_count() {
    // Same thread count, two runs: trivially required, but exercises mark
    // table reuse and executor construction.
    let g = gen::uniform_random_undirected(1_000, 4, 16);
    let (a, _) = mis::try_galois(&g, &det_executor(4)).unwrap();
    let (b, _) = mis::try_galois(&g, &det_executor(4)).unwrap();
    assert_eq!(a, b);
}

#[test]
fn window_policy_is_part_of_the_algorithm_not_a_parameter() {
    // Parameter-freedom: the schedule consumes no user-tunable value whose
    // setting changes output — but if someone *does* alter the (fixed)
    // window constants for an ablation, the output may legitimately change.
    // What must never change output: thread count (tested above) and
    // worklist policy (ignored by the deterministic scheduler).
    use deterministic_galois::core::WorklistPolicy;
    let g = gen::uniform_random_undirected(1_000, 4, 17);
    let (a, _) = mis::try_galois(&g, &det_executor(2)).unwrap();
    let exec_fifo = Executor::new()
        .threads(2)
        .schedule(Schedule::deterministic())
        .worklist(WorklistPolicy::Fifo);
    let (b, _) = mis::try_galois(&g, &exec_fifo).unwrap();
    assert_eq!(a, b, "worklist policy must not affect deterministic output");
}

#[test]
fn chaos_seed_does_not_leak_into_deterministic_output() {
    // The chaos layer's contract, end to end at the app level: seeds may
    // reorder thread arrivals and force spurious aborts, but mis output and
    // schedule counters match the chaos-free run at every thread count.
    let g = gen::uniform_random_undirected(1_000, 4, 18);
    let (baseline, base_report) = mis::try_galois(&g, &det_executor(2)).unwrap();
    for threads in common::THREAD_COUNTS {
        for seed in [3u64, 0x5EED] {
            let exec = det_executor(threads).chaos(seed);
            let (flags, report) = mis::try_galois(&g, &exec).unwrap();
            assert_eq!(flags, baseline, "threads={threads} seed={seed}");
            assert_eq!(report.stats.rounds, base_report.stats.rounds);
            assert_eq!(report.stats.committed, base_report.stats.committed);
        }
    }
}
