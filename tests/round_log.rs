//! Acceptance tests for the round-level observability layer.
//!
//! The round log's canonical serialization is the repo's portability oracle
//! in artifact form: under DIG scheduling every schedule-derived field
//! (window, attempted, committed, failed, conflict attribution) must be
//! byte-identical for any thread count. These tests pin that end to end
//! through the real applications, replay the adaptive-window sequence
//! against the §3.2 policy, and check that the probe is observation-only
//! (same atomic-update counts with and without it).

use deterministic_galois::apps::{bfs, dmr, mis};
use deterministic_galois::core::window::{AdaptiveWindow, WindowPolicy};
use deterministic_galois::core::{
    Ctx, Executor, MarkTable, OpResult, RoundLog, RunReport, Schedule,
};
use deterministic_galois::graph::gen;

fn det_exec(threads: usize) -> Executor {
    Executor::new()
        .threads(threads)
        .schedule(Schedule::deterministic())
        .record_rounds(true)
}

fn log_of(mut report: RunReport) -> RoundLog {
    report.take_round_log().expect("record_rounds was on")
}

/// bfs: canonical round logs are byte-identical at 1/2/4/8 threads.
#[test]
fn bfs_round_log_byte_identical_across_threads() {
    let g = gen::uniform_random(5_000, 4, 7);
    let reference = {
        let log = log_of(bfs::try_galois(&g, 0, &det_exec(1)).unwrap().1);
        assert!(!log.is_empty(), "bfs det run must record rounds");
        log.canonical_jsonl()
    };
    for threads in [2usize, 4, 8] {
        let log = log_of(bfs::try_galois(&g, 0, &det_exec(threads)).unwrap().1);
        assert_eq!(
            log.canonical_jsonl(),
            reference,
            "bfs canonical round log diverged at {threads} threads"
        );
    }
}

/// dmr: canonical round logs are identical at 1/2/4/8 threads. The mesh is
/// refined in place, so each run gets a fresh identical input.
///
/// One caveat that bfs does not have: dmr's abstract locations are mesh
/// arena slots, whose numeric ids are assigned by allocation order during
/// the parallel commit phase — the *schedule* is portable, but slot names
/// are only portable up to the (deterministic) renaming that the geometry
/// induces, exactly like [`tests/determinism.rs`]'s canonical-triangle
/// oracle. So the counts portion of the log is compared byte-for-byte, and
/// the conflict attribution is compared under the geometric canonical name
/// of each conflicting triangle (its sorted vertex coordinates).
#[test]
fn dmr_round_log_portable_across_threads() {
    // A conflicting location's canonical name: the triangle's vertex grid
    // coordinates, sorted.
    type GeoKey = [(i64, i64); 3];
    let run = |threads: usize| -> (String, Vec<Vec<(GeoKey, u64)>>) {
        let mesh = dmr::make_input(400, 42);
        let log = log_of(dmr::try_galois(&mesh, &det_exec(threads)).unwrap());
        assert!(!log.is_empty(), "dmr det run must record rounds");
        let counts_only = log
            .records()
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.conflicts.clear();
                r.canonical_json() + "\n"
            })
            .collect::<String>();
        let geo_conflicts = log
            .records()
            .iter()
            .map(|r| {
                let mut per_round: Vec<(GeoKey, u64)> = r
                    .conflicts
                    .iter()
                    .map(|&(loc, n)| {
                        let mut key: GeoKey = mesh.tri(loc).v.map(|vid| mesh.vertex(vid).to_grid());
                        key.sort_unstable();
                        (key, n)
                    })
                    .collect();
                per_round.sort_unstable();
                per_round
            })
            .collect();
        (counts_only, geo_conflicts)
    };
    let (ref_counts, ref_conflicts) = run(1);
    for threads in [2usize, 4, 8] {
        let (counts, conflicts) = run(threads);
        assert_eq!(
            counts, ref_counts,
            "dmr schedule counts diverged at {threads} threads"
        );
        assert_eq!(
            conflicts, ref_conflicts,
            "dmr conflict attribution diverged at {threads} threads"
        );
    }
}

/// mis locks input graph nodes — input-derived names like bfs — so its log
/// is raw byte-identical too, including the conflict attribution.
#[test]
fn mis_round_log_byte_identical_across_threads() {
    let g = gen::uniform_random_undirected(3_000, 4, 11);
    let run = |threads: usize| {
        let log = log_of(mis::try_galois(&g, &det_exec(threads)).unwrap().1);
        assert!(!log.is_empty(), "mis det run must record rounds");
        log.canonical_jsonl()
    };
    let reference = run(1);
    assert!(
        reference.contains("\"conflicts\":[["),
        "mis must exercise the abort attribution"
    );
    for threads in [2usize, 4, 8] {
        assert_eq!(
            run(threads),
            reference,
            "mis canonical round log diverged at {threads} threads"
        );
    }
}

/// The recorded window sizes replay the §3.2 adaptive policy exactly: a
/// single-pass workload's log must match a fresh [`AdaptiveWindow`] stepped
/// with the log's own (attempted, committed) pairs.
#[test]
fn window_sequence_matches_adaptive_policy() {
    const TASKS: u64 = 1_000;
    const CELLS: usize = 8;
    // High-conflict, no-push workload: one pass, lots of failed rounds, so
    // the window both shrinks and regrows over the run.
    let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
        ctx.acquire((*t % CELLS as u64) as u32)?;
        ctx.failsafe()?;
        Ok(())
    };
    let marks = MarkTable::new(CELLS);
    let mut log = RoundLog::new();
    let report = Executor::new()
        .threads(3)
        .schedule(Schedule::deterministic())
        .iterate((0..TASKS).collect())
        .probe(&mut log)
        .run(&marks, &op);
    assert_eq!(report.stats.committed, TASKS);
    assert_eq!(report.stats.rounds, log.len() as u64);
    assert!(
        log.records().iter().any(|r| r.failed > 0),
        "workload must actually conflict"
    );
    assert!(
        log.records()
            .iter()
            .any(|r| r.failed > 0 && !r.conflicts.is_empty()),
        "conflicting rounds must attribute their aborts"
    );

    let mut sim = AdaptiveWindow::for_pass(WindowPolicy::default(), TASKS as usize);
    for rec in log.records() {
        assert_eq!(
            rec.window,
            sim.size() as u64,
            "round {}: recorded window diverged from the §3.2 policy replay",
            rec.round
        );
        sim.update(rec.attempted as usize, rec.committed as usize);
    }
}

/// The probe observes; it must not perturb. A probed run reports exactly
/// the same schedule-derived stats — including `atomic_updates` — as an
/// unprobed one.
#[test]
fn probe_does_not_perturb_atomic_updates() {
    let g = gen::uniform_random(5_000, 4, 7);
    let plain = bfs::try_galois(
        &g,
        0,
        &Executor::new()
            .threads(2)
            .schedule(Schedule::deterministic()),
    )
    .unwrap()
    .1;
    let probed = bfs::try_galois(&g, 0, &det_exec(2)).unwrap().1;
    assert!(plain.round_log().is_none());
    assert!(probed.round_log().is_some());
    assert_eq!(plain.stats.atomic_updates, probed.stats.atomic_updates);
    assert_eq!(plain.stats.committed, probed.stats.committed);
    assert_eq!(plain.stats.aborted, probed.stats.aborted);
    assert_eq!(plain.stats.rounds, probed.stats.rounds);
}
