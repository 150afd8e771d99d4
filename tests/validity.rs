//! Cross-crate validity tests: every scheduler must produce *correct*
//! solutions (serializability of the non-deterministic executor, §2).

use deterministic_galois::apps::{bfs, dmr, dt, mis, pfp};
use deterministic_galois::core::{Executor, Schedule, WorklistPolicy};
use deterministic_galois::geometry::point::random_points;
use deterministic_galois::graph::{gen, FlowNetwork};
use deterministic_galois::mesh::check;

fn spec(threads: usize) -> Executor {
    Executor::new()
        .threads(threads)
        .schedule(Schedule::Speculative)
}

#[test]
fn speculative_bfs_distances_exact() {
    let g = gen::uniform_random(5_000, 5, 21);
    let expect = bfs::seq(&g, 0);
    for threads in [1, 4] {
        let exec = spec(threads).worklist(WorklistPolicy::Fifo);
        let (dist, _) = bfs::try_galois(&g, 0, &exec).unwrap();
        assert_eq!(dist, expect);
    }
}

#[test]
fn speculative_mis_is_maximal_independent() {
    let g = gen::uniform_random_undirected(3_000, 4, 22);
    for threads in [1, 4] {
        let (flags, _) = mis::try_galois(&g, &spec(threads)).unwrap();
        mis::verify(&g, &flags).unwrap();
    }
}

#[test]
fn speculative_dt_is_the_unique_delaunay_triangulation() {
    let pts = random_points(700, 23);
    let expect = check::canonical_triangles(&dt::seq(&pts, 9));
    for threads in [1, 4] {
        let (mesh, _) = dt::try_galois(&pts, 9, &spec(threads)).unwrap();
        check::validate(&mesh).unwrap();
        check::check_delaunay(&mesh).unwrap();
        assert_eq!(check::canonical_triangles(&mesh), expect);
    }
}

#[test]
fn speculative_dmr_produces_conforming_refined_mesh() {
    for threads in [1, 4] {
        let mesh = dmr::make_input(150, 24);
        dmr::try_galois(&mesh, &spec(threads)).unwrap();
        check::validate(&mesh).unwrap();
        check::check_delaunay(&mesh).unwrap();
        assert_eq!(check::quality(&mesh).bad, 0);
    }
}

#[test]
fn speculative_pfp_matches_reference_max_flow() {
    let net = FlowNetwork::random(96, 4, 80, 25);
    net.reset();
    let expect = net.edmonds_karp();
    for threads in [1, 4] {
        let (flow, _) = pfp::try_galois(&net, &spec(threads)).unwrap();
        assert_eq!(flow, expect);
        net.verify_flow().unwrap();
    }
}

#[test]
fn pbbs_variants_are_valid_and_deterministic() {
    let g = gen::uniform_random(3_000, 5, 26);
    let (d1, p1, _) = bfs::pbbs(&g, 0, 1, false);
    let (d2, p2, _) = bfs::pbbs(&g, 0, 4, false);
    bfs::verify(&g, 0, &d1).unwrap();
    assert_eq!((d1, p1), (d2, p2));

    let gu = gen::uniform_random_undirected(2_000, 4, 27);
    let (f1, _) = mis::pbbs(&gu, 1, false);
    let (f2, _) = mis::pbbs(&gu, 3, false);
    mis::verify(&gu, &f1).unwrap();
    assert_eq!(f1, f2);
    assert_eq!(
        f1,
        mis::seq(&gu),
        "pbbs mis is the lexicographically first MIS"
    );
}

#[test]
fn serial_executor_matches_seq_implementations() {
    let g = gen::uniform_random(2_000, 5, 28);
    let exec = Executor::new().schedule(Schedule::Serial);
    let (dist, report) = bfs::try_galois(&g, 0, &exec).unwrap();
    bfs::verify(&g, 0, &dist).unwrap();
    assert_eq!(report.stats.aborted, 0);
    assert_eq!(report.stats.atomic_updates, 0, "serial mode takes no locks");
}
