//! Property-based tests (proptest) over the core scheduling machinery and
//! the substrates, checking the invariants the paper's correctness argument
//! rests on.

use deterministic_galois::core::flags::AbortFlags;
use deterministic_galois::core::marks::{LockId, MarkTable, UNOWNED};
use deterministic_galois::core::task::{place_children, spread_for_locality, TaskId, WorkItem};
use deterministic_galois::core::window::{AdaptiveWindow, WindowPolicy};
use deterministic_galois::core::{Ctx, Executor, OpResult, Schedule};
use proptest::prelude::*;

proptest! {
    /// writeMarksMax: the final mark of each location is the maximum of the
    /// ids that touched it, for any interleaving (here: any permutation).
    #[test]
    fn write_max_is_permutation_invariant(
        writes in proptest::collection::vec((0u32..16, 1u64..100), 1..60),
        seed in 0u64..1000,
    ) {
        let reference = {
            let t = MarkTable::new(16);
            for &(loc, id) in &writes {
                t.write_max(LockId(loc), id);
            }
            (0..16).map(|l| t.load(LockId(l))).collect::<Vec<_>>()
        };
        // A deterministic shuffle of the same writes.
        let mut shuffled = writes.clone();
        let n = shuffled.len();
        for i in 0..n {
            let j = (seed as usize + i * 7919) % n;
            shuffled.swap(i, j);
        }
        let t = MarkTable::new(16);
        for &(loc, id) in &shuffled {
            t.write_max(LockId(loc), id);
        }
        let got = (0..16).map(|l| t.load(LockId(l))).collect::<Vec<_>>();
        prop_assert_eq!(got, reference);
    }

    /// The abort-flag protocol marks exactly the tasks that are not local
    /// maxima of the interference relation.
    #[test]
    fn flags_select_local_maxima(
        neighborhoods in proptest::collection::vec(
            proptest::collection::btree_set(0u32..12, 1..5),
            1..12,
        ),
    ) {
        let marks = MarkTable::new(12);
        let flags = AbortFlags::new(neighborhoods.len());
        // Inspect phase: every task max-marks its neighborhood.
        for (id, nb) in neighborhoods.iter().enumerate() {
            let mark_value = id as u64 + 1;
            for &loc in nb {
                let prev = marks.write_max(LockId(loc), mark_value);
                if prev > mark_value {
                    flags.set(id);
                } else if prev != UNOWNED && prev != mark_value {
                    flags.set((prev - 1) as usize);
                }
            }
        }
        // A task is unflagged iff no *other* task with a higher id shares a
        // location with it.
        for (id, nb) in neighborhoods.iter().enumerate() {
            let beaten = neighborhoods
                .iter()
                .enumerate()
                .any(|(other, onb)| other > id && !onb.is_disjoint(nb));
            prop_assert_eq!(
                flags.get(id),
                beaten,
                "task {} with neighborhood {:?}", id, nb
            );
        }
        // Unflagged tasks form an independent set.
        for (a, na) in neighborhoods.iter().enumerate() {
            for (b, nb2) in neighborhoods.iter().enumerate() {
                if a < b && !flags.get(a) && !flags.get(b) {
                    prop_assert!(na.is_disjoint(nb2));
                }
            }
        }
    }

    /// The counting placement equals the stable `(parent, rank)` sort
    /// followed by locality spreading, for births in any round order,
    /// parent-id gaps, childless parents and every stride class — and it
    /// reuses whatever its buffers held before.
    #[test]
    fn placement_is_the_sorted_spread(
        parents in proptest::collection::btree_set(0u64..200, 0..30),
        counts in proptest::collection::vec(0usize..5, 30..31),
        seed in 0u64..1000,
        stride_class in 0usize..8,
        stale in 0usize..50,
    ) {
        // Births in a shuffled "round order"; children keyed by payload.
        let mut births: Vec<(TaskId, usize)> =
            parents.iter().zip(&counts).map(|(&p, &c)| (p, c)).collect();
        let nb = births.len();
        for i in 0..nb {
            let j = (seed as usize).wrapping_mul(2654435761).wrapping_add(i * 31) % nb;
            births.swap(i, j);
        }
        // Payloads are birth-order serials, so the oracle's stability and
        // the placement's id-to-payload pairing are both observable.
        let keyed: Vec<((TaskId, usize), usize)> = births
            .iter()
            .flat_map(|&(p, c)| (0..c).map(move |k| (p, k)))
            .enumerate()
            .map(|(serial, key)| (key, serial))
            .collect();
        let n = keyed.len();
        let stride = [0, 1, 2, 16, n.saturating_sub(1), n, n + 1, usize::MAX][stride_class];

        let mut sorted = keyed.clone();
        sorted.sort_by_key(|&(key, _)| key); // std's stable sort
        let numbered: Vec<WorkItem<usize>> = sorted
            .into_iter()
            .enumerate()
            .map(|(id, (_, task))| WorkItem { task, id: id as TaskId })
            .collect();
        let oracle: Vec<Option<WorkItem<usize>>> =
            spread_for_locality(numbered, stride).into_iter().map(Some).collect();

        let mut first = vec![7usize; stale];
        let mut pending: Vec<Option<WorkItem<usize>>> = (0..stale)
            .map(|i| Some(WorkItem { task: 999 + i, id: 999 }))
            .collect();
        let children = keyed.into_iter().map(|(_, serial)| serial);
        place_children(&births, children, stride, &mut first, &mut pending);
        prop_assert_eq!(pending, oracle);
    }

    /// Locality spreading is a permutation for any stride.
    #[test]
    fn spread_permutes(len in 0usize..200, stride in 0usize..40) {
        let v: Vec<usize> = (0..len).collect();
        let mut s = spread_for_locality(v.clone(), stride);
        s.sort_unstable();
        prop_assert_eq!(s, v);
    }

    /// The adaptive window is a pure function of commit history.
    #[test]
    fn window_trajectory_is_deterministic(
        history in proptest::collection::vec((1usize..5000, 0usize..5000), 0..50),
        pass in 1usize..1_000_000,
    ) {
        let run = || {
            let mut w = AdaptiveWindow::for_pass(WindowPolicy::default(), pass);
            let mut out = vec![w.size()];
            for &(a, c) in &history {
                w.update(a, c.min(a));
                out.push(w.size());
            }
            out
        };
        prop_assert_eq!(run(), run());
    }

    /// Executor equivalence on a random reduction: for any multiset of
    /// tasks and any bucket mapping, all three schedulers commit every task
    /// exactly once and compute the same bucket sums.
    #[test]
    fn schedulers_agree_on_commutative_reductions(
        tasks in proptest::collection::vec(0u64..1000, 1..300),
        buckets in 1u64..12,
        threads in 1usize..5,
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let run = |schedule: Schedule| {
            let sums: Vec<AtomicU64> = (0..buckets).map(|_| AtomicU64::new(0)).collect();
            let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
                let b = (*t % buckets) as u32;
                ctx.acquire(b)?;
                ctx.failsafe()?;
                let cur = sums[b as usize].load(Ordering::Relaxed);
                sums[b as usize].store(cur + *t, Ordering::Relaxed);
                Ok(())
            };
            let marks = MarkTable::new(buckets as usize);
            let report = Executor::new()
                .threads(threads)
                .schedule(schedule)
                .iterate(tasks.clone())
                .run(&marks, &op);
            let v: Vec<u64> = sums.iter().map(|s| s.load(Ordering::Relaxed)).collect();
            (v, report.stats.committed)
        };
        let (serial, c0) = run(Schedule::Serial);
        let (spec, c1) = run(Schedule::Speculative);
        let (det, c2) = run(Schedule::deterministic());
        prop_assert_eq!(&serial, &spec);
        prop_assert_eq!(&serial, &det);
        prop_assert_eq!(c0, tasks.len() as u64);
        prop_assert_eq!(c1, tasks.len() as u64);
        prop_assert_eq!(c2, tasks.len() as u64);
    }

    /// Deterministic scheduling of an order-sensitive operator is
    /// thread-count independent even under heavy conflicts.
    #[test]
    fn deterministic_order_sensitive_portability(
        tasks in proptest::collection::vec(0u64..64, 1..80),
        locs in 1u32..8,
    ) {
        use std::sync::Mutex;
        let run = |threads: usize| {
            let log: Vec<Mutex<Vec<u64>>> = (0..locs).map(|_| Mutex::new(vec![])).collect();
            let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
                let l = (*t % locs as u64) as u32;
                ctx.acquire(l)?;
                ctx.acquire((l + 1) % locs)?;
                ctx.failsafe()?;
                log[l as usize].lock().unwrap().push(*t);
                Ok(())
            };
            let marks = MarkTable::new(locs as usize);
            Executor::new()
                .threads(threads)
                .schedule(Schedule::deterministic())
                .iterate(tasks.clone())
                .run(&marks, &op);
            log.into_iter().map(|m| m.into_inner().unwrap()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(1), run(3));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Graph substrate: parallel deterministic BFS distances equal the
    /// sequential reference on arbitrary random graphs.
    #[test]
    fn bfs_distances_on_arbitrary_graphs(
        n in 2usize..120,
        deg in 1usize..5,
        seed in 0u64..500,
    ) {
        use deterministic_galois::apps::bfs;
        use deterministic_galois::graph::gen;
        let g = gen::uniform_random(n, deg, seed);
        let expect = g.bfs_distances(0);
        let exec = Executor::new().threads(2).schedule(Schedule::deterministic());
        let (dist, _) = bfs::try_galois(&g, 0, &exec).unwrap();
        prop_assert_eq!(dist, expect);
    }

    /// Mesh substrate: the triangulation of arbitrary point sets is valid,
    /// Delaunay, and insertion-order independent.
    #[test]
    fn delaunay_of_arbitrary_points(
        raw in proptest::collection::btree_set((0i64..1024, 0i64..1024), 3..40),
    ) {
        use deterministic_galois::geometry::Point;
        use deterministic_galois::mesh::{build, check};
        // Spread points over the grid so they are distinct after scaling.
        let pts: Vec<Point> = raw
            .iter()
            .map(|&(x, y)| Point::from_grid(x << 10, y << 10))
            .collect();
        let mesh = build::triangulate(&pts);
        check::validate(&mesh).map_err(TestCaseError::fail)?;
        check::check_delaunay(&mesh).map_err(TestCaseError::fail)?;
        let mut rev = pts.clone();
        rev.reverse();
        let mesh2 = build::triangulate(&rev);
        prop_assert_eq!(
            check::canonical_triangles(&mesh),
            check::canonical_triangles(&mesh2)
        );
    }

    /// Flow substrate: preflow-push equals Edmonds–Karp on arbitrary small
    /// networks.
    #[test]
    fn pfp_equals_reference_flow(n in 4usize..40, deg in 1usize..4, seed in 0u64..200) {
        use deterministic_galois::apps::pfp;
        use deterministic_galois::graph::FlowNetwork;
        let net = FlowNetwork::random(n, deg, 50, seed);
        net.reset();
        let expect = net.edmonds_karp();
        let (flow, _) = pfp::seq(&net);
        prop_assert_eq!(flow, expect);
        net.verify_flow().map_err(TestCaseError::fail)?;
    }
}
