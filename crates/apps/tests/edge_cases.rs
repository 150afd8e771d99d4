//! Edge-case and cross-variant agreement tests for the applications.

use galois_apps::{bfs, dmr, dt, mis, pfp};
use galois_core::{Executor, Schedule, WorklistPolicy};
use galois_geometry::Point;
use galois_graph::{gen, CsrGraph, FlowNetwork};
use galois_mesh::check;

fn all_schedules() -> Vec<(&'static str, Executor)> {
    vec![
        ("serial", Executor::new().schedule(Schedule::Serial)),
        (
            "spec",
            Executor::new()
                .threads(3)
                .schedule(Schedule::Speculative)
                .worklist(WorklistPolicy::Fifo),
        ),
        (
            "det",
            Executor::new()
                .threads(3)
                .schedule(Schedule::deterministic()),
        ),
    ]
}

#[test]
fn bfs_on_grid_all_schedules() {
    let g = gen::grid2d(25, 17);
    let expect = g.bfs_distances(0);
    for (name, exec) in all_schedules() {
        let (dist, _) = bfs::try_galois(&g, 0, &exec).unwrap();
        assert_eq!(dist, expect, "{name}");
    }
}

#[test]
fn bfs_single_node_and_self_contained_source() {
    let g = CsrGraph::from_edges(1, &[]);
    for (name, exec) in all_schedules() {
        let (dist, report) = bfs::try_galois(&g, 0, &exec).unwrap();
        assert_eq!(dist, vec![0], "{name}");
        assert_eq!(report.stats.committed, 1, "{name}: just the source task");
    }
}

#[test]
fn bfs_star_graph_depth_one() {
    // Hub 0 connected to everything: one round of depth 1.
    let edges: Vec<(u32, u32)> = (1..100).map(|i| (0, i)).collect();
    let g = CsrGraph::from_edges(100, &edges);
    let (dist, _, stats) = bfs::pbbs(&g, 0, 2, false);
    assert!(dist[1..].iter().all(|&d| d == 1));
    // One productive round plus the final empty-frontier round.
    assert_eq!(stats.rounds, 2);
}

#[test]
fn mis_on_complete_graph_is_singleton() {
    let n = 24u32;
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            edges.push((a, b));
        }
    }
    let g = CsrGraph::symmetrized(n as usize, &edges);
    for (name, exec) in all_schedules() {
        let (flags, _) = mis::try_galois(&g, &exec).unwrap();
        mis::verify(&g, &flags).unwrap();
        let in_count = flags.iter().filter(|&&f| f == mis::state::IN).count();
        assert_eq!(in_count, 1, "{name}: complete graph has singleton MIS");
    }
    let (flags, _) = mis::pbbs(&g, 2, false);
    assert_eq!(flags[0], mis::state::IN, "lexicographic MIS picks node 0");
}

#[test]
fn mis_on_edgeless_graph_takes_everything() {
    let g = CsrGraph::from_edges(50, &[]);
    let (flags, _) = mis::pbbs(&g, 3, false);
    assert!(flags.iter().all(|&f| f == mis::state::IN));
}

#[test]
fn dt_collinear_points() {
    // All points on one horizontal line: triangulation works because the
    // domain corners break the degeneracy.
    let pts: Vec<Point> = (1..40)
        .map(|i| Point::from_grid(i * 1_000_000, 1 << 25))
        .collect();
    let mesh = dt::seq(&pts, 1);
    check::validate(&mesh).unwrap();
    check::check_delaunay(&mesh).unwrap();
    let expect = check::canonical_triangles(&mesh);
    for (name, exec) in all_schedules() {
        let (m, _) = dt::try_galois(&pts, 1, &exec).unwrap();
        assert_eq!(check::canonical_triangles(&m), expect, "{name}");
    }
}

#[test]
fn dt_points_on_domain_boundary() {
    // Points exactly on the square's sides exercise the hull-split paths.
    let g = 1i64 << 26;
    let pts = vec![
        Point::from_grid(g / 2, 0),
        Point::from_grid(0, g / 3),
        Point::from_grid(g, g / 2),
        Point::from_grid(g / 4, g),
        Point::from_grid(g / 2, g / 2),
    ];
    let mesh = dt::seq(&pts, 2);
    check::validate(&mesh).unwrap();
    check::check_delaunay(&mesh).unwrap();
    check::check_contains_vertices(&mesh, 4 + pts.len()).unwrap();
}

#[test]
fn dt_duplicate_heavy_input() {
    // Many duplicates: committed tasks still equals the task count (dups
    // commit as no-ops), and the mesh has only the distinct points.
    let p = Point::from_grid(5_000_000, 7_000_000);
    let q = Point::from_grid(9_000_000, 2_000_000);
    let pts = vec![p, q, p, q, p, q, p];
    for (name, exec) in all_schedules() {
        let (mesh, report) = dt::try_galois(&pts, 3, &exec).unwrap();
        assert_eq!(report.stats.committed, 7, "{name}");
        assert_eq!(mesh.num_verts(), 4 + 2, "{name}: two distinct points");
        check::validate(&mesh).unwrap();
    }
}

#[test]
fn dmr_refines_boundary_heavy_mesh() {
    // Clustered points near one corner force encroached-boundary splits.
    let pts: Vec<Point> = (0..60)
        .map(|i| Point::from_grid(1_000 + i * 37, 2_000 + (i * i) % 977))
        .collect();
    let mut b = galois_mesh::build::SeqBuilder::with_headroom(pts.len(), 40_000, 400_000);
    for &p in &pts {
        b.insert(p);
    }
    let mesh = b.into_mesh();
    let exec = Executor::new()
        .threads(2)
        .schedule(Schedule::deterministic());
    dmr::try_galois(&mesh, &exec).unwrap();
    check::validate(&mesh).unwrap();
    check::check_delaunay(&mesh).unwrap();
    assert_eq!(check::quality(&mesh).bad, 0);
}

#[test]
fn pfp_rmf_all_schedules_agree() {
    let net = FlowNetwork::rmf(4, 4, 25, 3);
    net.reset();
    let expect = net.edmonds_karp();
    assert!(expect > 0);
    for (name, exec) in all_schedules() {
        let (flow, _) = pfp::try_galois(&net, &exec).unwrap();
        assert_eq!(flow, expect, "{name}");
        net.verify_flow().unwrap();
    }
    let (flow, _) = pfp::seq(&net);
    assert_eq!(flow, expect);
}

#[test]
fn pfp_saturated_single_path() {
    // A path network: flow = min capacity along the path.
    let net = FlowNetwork::from_edges(5, &[(0, 1, 9), (1, 2, 3), (2, 3, 7), (3, 4, 5)], 0, 4);
    let (flow, _) = pfp::seq(&net);
    assert_eq!(flow, 3);
    let exec = Executor::new()
        .threads(2)
        .schedule(Schedule::deterministic());
    let (flow, _) = pfp::try_galois(&net, &exec).unwrap();
    assert_eq!(flow, 3);
}
