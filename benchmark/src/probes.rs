//! The per-layer numbers: fixed-count samples of every layer, taken only in
//! the traced run so that end-to-end numbers are measured with spans and
//! probes off.
//!
//! Every sample is a call into a layer's public functions, timed from this
//! file under a span. Where a layer is reached through a workload (the
//! service, the lockstep tier) the sample is a fixed number of that
//! workload's own ops with tracing on. Counts marked exact are compared
//! across repetitions here and across runs by the `aa` mode.

use crate::config::Config;
use crate::exec::{self, Cell, ExecWorkload};
use crate::lockstep::LockstepWorkload;
use crate::measure::median;
use crate::names::{EXEC_APPS, SERVE_APPS};
use crate::runner::{run_window, Ops, Until, Window, Workload};
use crate::serve::{json_field, Mix, ServeWorkload};
use crate::trace::{Span, Tracer};
use galois_core::marks::{LockId, MarkTable};
use galois_core::RunReport;
use galois_graph::{cache, gen, CsrGraph, FlowNetwork};
use galois_harness::{
    executor_for, replay_run, run_cell, App, InputConfig, InputStore, Residency, Variant,
};
use galois_runtime::worklist::ChunkedBag;
use galois_runtime::{run_on_threads, SenseBarrier};
use galois_serve::lockstep::{Coordinator, LockstepConfig};
use galois_serve::wire::{self, Frame};
use galois_serve::RunRequest;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything the probes produced.
pub struct Probes {
    /// `(metric name, value)`; every per-layer name but those that belong to
    /// a workload's own windows (`names::PER_WORKLOAD_LAYERS`).
    pub values: Vec<(String, f64)>,
    pub attempted: u64,
    /// `(op id, reason)` of every failed check.
    pub failures: Vec<(u64, String)>,
    pub trace: Tracer,
}

struct Cx<'a> {
    cfg: &'a Config,
    tr: Tracer,
    values: Vec<(String, f64)>,
    attempted: u64,
    failures: Vec<(u64, String)>,
    next_op: u64,
    windows: u64,
}

impl Cx<'_> {
    /// Probe op ids start far above any workload op's.
    fn op(&mut self) -> u64 {
        self.next_op += 1;
        9_000_000_000 + self.next_op
    }

    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Puts the median of `samples`; a probe that produced none has failed.
    fn put_median(&mut self, name: impl Into<String>, samples: &[f64]) {
        let name = name.into();
        if samples.is_empty() {
            let op = self.op();
            self.check::<()>(op, Err(format!("{name}: no samples")));
            self.put(name, 0.0);
        } else {
            self.put(name, median(samples));
        }
    }

    /// Counts one checked call; an `Err` is a failed op.
    fn check<T>(&mut self, op: u64, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push((op, e));
                None
            }
        }
    }

    /// Runs `ops_per_client` traced ops of a workload, folds them into the
    /// probe's own record, and returns their trace alone.
    fn sample(&mut self, w: &dyn Workload, ops_per_client: u64) -> Tracer {
        // A block of ids of its own for every sampled window, above the
        // probes' own.
        self.windows += 1;
        let ops = Ops {
            first: 0,
            id_base: 10_000_000_000 + self.windows * 100_000_000,
        };
        let window: Window = run_window(w, ops, Until::Ops(ops_per_client), true);
        self.attempted += window.attempted();
        self.failures.extend(window.failures);
        let trace = window.trace;
        self.tr.merge(trace.clone());
        trace
    }

    /// Runs `f` under one span and returns its wall time in ms.
    fn timed<T>(
        &mut self,
        name: &'static str,
        app: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let op = self.op();
        let span = self.tr.enter(name, app, op, None);
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.tr.exit(span);
        (out, ms)
    }

    /// ns per iteration of `f` over `iters` calls, under one span.
    fn per_call_ns(&mut self, name: &'static str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
        let ((), ms) = self.timed(name, "", || {
            for i in 0..iters {
                f(i);
            }
        });
        ms * 1e6 / iters as f64
    }
}

/// Where traces and the scratch input cache go: `benchmark/out`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

pub fn run(cfg: &Config) -> Result<Probes, String> {
    let mut cx = Cx {
        cfg,
        tr: Tracer::on(Instant::now()),
        values: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        next_op: 0,
        windows: 0,
    };
    inputs(&mut cx);
    executors(&mut cx)?;
    marks(&mut cx);
    runtime(&mut cx);
    let lockstep = LockstepWorkload::setup(cfg)?;
    manifest_and_replay(&mut cx, &lockstep)?;
    store(&mut cx);
    service(&mut cx)?;
    wire_and_lockstep(&mut cx, &lockstep)?;
    Ok(Probes {
        values: cx.values,
        attempted: cx.attempted,
        failures: cx.failures,
        trace: cx.tr,
    })
}

/// graph / geometry / mesh: every input kind built by each of its routes.
fn inputs(cx: &mut Cx) {
    let cfg = cx.cfg;
    let threads = cfg.threads;
    let size = |app: App| {
        cfg.sizes
            .exec
            .iter()
            .find(|(a, _)| *a == app)
            .map_or(0, |x| x.1)
    };
    let (n, seed) = (size(App::Bfs), cfg.input_seed(App::Bfs as u64));
    let pfp = cfg
        .sizes
        .replay
        .iter()
        .find(|(a, _)| *a == App::Pfp)
        .map_or(0, |x| x.1);
    let dir = out_dir().join(format!("cache-{}", std::process::id()));
    let mut samples: [Vec<f64>; 8] = Default::default();
    for _ in 0..cx.cfg.sizes.probe_reps {
        let (edges, ms) = cx.timed("graph.gen.edges", "bfs", || {
            gen::uniform_random_edges_parallel(n, 5, seed, threads)
        });
        samples[0].push(ms);
        let (two_step, ms) = cx.timed("graph.csr.build", "bfs", || {
            CsrGraph::from_edges_parallel(n, &edges, threads)
        });
        samples[1].push(ms);
        let (fused, ms) = cx.timed("graph.full_build", "bfs", || {
            gen::uniform_random_parallel(n, 5, seed, threads)
        });
        samples[2].push(ms);
        // Third route: through the on-disk cache, a miss that stores and
        // then a hit that loads. The build inside the miss is timed apart.
        let _ = std::fs::remove_dir_all(&dir);
        let mut build_ms = 0.0;
        let ((stored, _), miss_ms) = cx.timed("graph.cache.miss", "bfs", || {
            cache::load_or_build_graph(Some(&dir), "probe", || {
                let t = Instant::now();
                let g = gen::uniform_random_parallel(n, 5, seed, threads);
                build_ms = t.elapsed().as_secs_f64() * 1e3;
                g
            })
        });
        samples[3].push(miss_ms - build_ms);
        let ((loaded, outcome), ms) = cx.timed("graph.cache.load", "bfs", || {
            // A miss here means the store failed; the check below says so.
            cache::load_or_build_graph(Some(&dir), "probe", || {
                gen::uniform_random_parallel(n, 5, seed, threads)
            })
        });
        samples[4].push(ms);
        let op = cx.op();
        let same = two_step == fused && stored == fused && loaded == fused && outcome.is_hit();
        cx.check(
            op,
            same.then_some(())
                .ok_or("graph build routes disagree".to_string()),
        );
        let (_, ms) = cx.timed("graph.flow.build", "pfp", || {
            FlowNetwork::random_parallel(pfp, 4, 100, seed, threads)
        });
        samples[5].push(ms);
        let (_, ms) = cx.timed("geometry.points", "dt", || {
            galois_geometry::point::random_points(size(App::Dt), seed)
        });
        samples[6].push(ms);
        let (_, ms) = cx.timed("mesh.dmr_input", "dmr", || {
            galois_apps::dmr::make_input(size(App::Dmr), seed)
        });
        samples[7].push(ms);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let names = [
        "graph.gen.edges_ms",
        "graph.csr.build_ms",
        "graph.full_build_ms",
        "graph.cache.store_ms",
        "graph.cache.load_ms",
        "graph.flow.build_ms",
        "geometry.points_ms",
        "mesh.dmr_input_ms",
    ];
    for (name, s) in names.iter().zip(&samples) {
        cx.put_median(*name, s);
    }
    // Above 1, loading a cached graph is slower than generating it again.
    cx.put(
        "graph.cache.load_over_build",
        median(&samples[4]) / median(&samples[2]),
    );
}

/// What one deterministic run's round log says, per ROADMAP item 2: the
/// phases `RoundRecord` times, and what is left of threads x wall.
struct DetRun {
    rounds: u64,
    commit_ratio: f64,
    round_us: f64,
    inspect: f64,
    commit: f64,
    serial: f64,
}

fn det_run(report: &RunReport) -> Option<DetRun> {
    let records = report.round_log()?.records();
    let sum = |f: fn(&galois_core::RoundRecord) -> f64| records.iter().map(f).sum::<f64>();
    let thread_ns = report.stats.elapsed.as_secs_f64() * 1e9 * report.stats.threads as f64;
    Some(DetRun {
        rounds: records.len() as u64,
        commit_ratio: sum(|r| r.committed as f64) / sum(|r| r.attempted as f64),
        round_us: report.stats.elapsed.as_secs_f64() * 1e6 / records.len() as f64,
        inspect: sum(|r| r.inspect_ns) / thread_ns,
        commit: sum(|r| r.commit_ns) / thread_ns,
        // The leader runs the serial tail alone while its peers wait.
        serial: sum(|r| r.serial_ns) / thread_ns,
    })
}

/// apps, core det/spec executors, and `run_resident`'s own share: every app
/// run through the harness, then directly at nproc, one thread, and
/// speculatively.
fn executors(cx: &mut Cx) -> Result<(), String> {
    let cfg = cx.cfg;
    let all: Vec<App> = cfg.sizes.exec.iter().map(|x| x.0).collect();
    let workload = ExecWorkload::setup(cfg, Variant::Deterministic, &all)?;
    let (mut t1_pass, mut tn_pass, mut overhead) = (0.0, 0.0, 0.0);
    for (cell, name) in workload.cells.iter().zip(EXEC_APPS) {
        let s = exec_cell(cx, cell);
        // A failed run was counted by `exec_cell`; its numbers are withheld.
        let complete = [&s.resident_ms, &s.direct_ms, &s.t1_ms, &s.abort_ratio]
            .iter()
            .all(|samples| !samples.is_empty());
        let (Some(first), true) = (s.det.first(), complete) else {
            continue;
        };
        let op = cx.op();
        let repeats = s
            .det
            .iter()
            .all(|d| d.rounds == first.rounds && d.commit_ratio == first.commit_ratio);
        cx.check(
            op,
            repeats
                .then_some(())
                .ok_or(format!("{name}: round counts differ between runs")),
        );
        let of = |f: fn(&DetRun) -> f64| median(&s.det.iter().map(f).collect::<Vec<_>>());
        cx.put(format!("apps.{name}.run_ms_p50"), median(&s.run_ms));
        cx.put(format!("apps.{name}.verify_ms_p50"), median(&s.verify_ms));
        cx.put(format!("core.det.{name}.rounds"), first.rounds as f64);
        cx.put(format!("core.det.{name}.commit_ratio"), first.commit_ratio);
        cx.put(format!("core.det.{name}.round_us_p50"), of(|d| d.round_us));
        cx.put(format!("core.det.{name}.inspect_share"), of(|d| d.inspect));
        cx.put(format!("core.det.{name}.commit_share"), of(|d| d.commit));
        cx.put(format!("core.det.{name}.serial_share"), of(|d| d.serial));
        // Barrier wait and idle: whatever of threads x wall no timed phase
        // explains. Reported under its own name, never dropped.
        cx.put(
            format!("core.det.{name}.wait_share"),
            of(|d| 1.0 - d.inspect - d.commit - d.serial),
        );
        cx.put(
            format!("core.spec.{name}.abort_ratio"),
            median(&s.abort_ratio),
        );
        t1_pass += median(&s.t1_ms);
        tn_pass += median(&s.run_ms);
        overhead += median(&s.resident_ms) - median(&s.direct_ms);
    }
    // Reduction and fingerprinting: what run_resident adds to input
    // preparation + run + verify, summed over the five apps.
    cx.put("harness.run_resident.overhead_ms_p50", overhead);
    if !cfg.oversubscribed() {
        cx.put(
            "core.det.scale_eff",
            t1_pass / (cfg.threads as f64 * tn_pass),
        );
    }
    Ok(())
}

#[derive(Default)]
struct CellSamples {
    resident_ms: Vec<f64>,
    /// Input preparation + run + verify of the direct nproc run.
    direct_ms: Vec<f64>,
    run_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    t1_ms: Vec<f64>,
    abort_ratio: Vec<f64>,
    det: Vec<DetRun>,
}

fn exec_cell(cx: &mut Cx, cell: &Cell) -> CellSamples {
    let name = cell.app.name();
    let threads = cx.cfg.threads;
    let t1 = exec::executor(cell.app, Variant::Deterministic, 1);
    let spec = exec::executor(cell.app, Variant::Speculative, threads);
    let mut s = CellSamples::default();
    let span_ms = |tr: &Tracer, from: usize, span_name: &str| -> f64 {
        tr.spans[from..]
            .iter()
            .filter(|x| x.name == span_name)
            .map(Span::ms)
            .sum()
    };
    for _ in 0..cx.cfg.sizes.probe_reps {
        let op = cx.op();
        let root = cx.tr.enter("probe.exec", name, op, None);

        let t = Instant::now();
        let result = cx.tr.span("harness.run_resident", name, op, root, || {
            exec::run_checked(cell.app, &cell.exec, &cell.input)
        });
        s.resident_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let matches = result.and_then(|out| {
            (out.fingerprint == cell.reference.fingerprint)
                .then_some(())
                .ok_or(format!(
                    "{name}: fingerprint differs from the one-thread reference"
                ))
        });
        cx.check(op, matches);

        let from = cx.tr.spans.len();
        let direct = exec::direct_run(cell, &cell.exec, op, root, &mut cx.tr);
        if let Some(report) = cx.check(op, direct) {
            let run = span_ms(&cx.tr, from, "apps.run");
            let verify = span_ms(&cx.tr, from, "apps.verify");
            s.run_ms.push(run);
            s.verify_ms.push(verify);
            s.direct_ms
                .push(run + verify + span_ms(&cx.tr, from, "mesh.dmr_input"));
            s.det.extend(det_run(&report));
        }

        let from = cx.tr.spans.len();
        let direct = exec::direct_run(cell, &t1, op, root, &mut cx.tr);
        if cx.check(op, direct).is_some() {
            s.t1_ms.push(span_ms(&cx.tr, from, "apps.run"));
        }

        let direct = exec::direct_run(cell, &spec, op, root, &mut cx.tr);
        if let Some(report) = cx.check(op, direct) {
            s.abort_ratio.push(report.stats.abort_ratio());
        }
        cx.tr.exit(root);
    }
    s
}

/// core::marks by direct calls, one thread.
fn marks(cx: &mut Cx) {
    const SLOTS: u64 = 1 << 16;
    const CALLS: u64 = 1 << 21;
    let table = MarkTable::new(SLOTS as usize);
    let loc = |i: u64| LockId((i.wrapping_mul(0x9E37_79B1) % SLOTS) as u32);
    let ns = cx.per_call_ns("core.marks.write_max", CALLS, |i| {
        black_box(table.write_max(loc(i), i + 1));
    });
    cx.put("core.marks.write_max_ns", ns);
    let ns = cx.per_call_ns("core.marks.bump_epoch", CALLS, |_| table.bump_epoch());
    cx.put("core.marks.epoch_bump_ns", ns);
    let ns = cx.per_call_ns("core.marks.acquire_release", CALLS, |i| {
        black_box(table.try_acquire(loc(i), i + 1));
        table.release(loc(i), i + 1);
    });
    cx.put("core.marks.acquire_release_ns", ns);
}

/// runtime: barrier, pool, worklist, fingerprint hash.
fn runtime(cx: &mut Cx) {
    let threads = cx.cfg.threads;
    const CROSSINGS: u32 = 2_000;
    let mut cross_ns = Vec::new();
    for _ in 0..5 {
        let barrier = SenseBarrier::new(threads);
        // Empty phases: nothing but the crossing itself between waits.
        let ((), ms) = cx.timed("runtime.barrier.cross", "", || {
            run_on_threads(threads, |_| {
                for _ in 0..CROSSINGS {
                    barrier.wait();
                }
            })
        });
        cross_ns.push(ms * 1e6 / CROSSINGS as f64);
    }
    cx.put("runtime.barrier.cross_ns_p50", median(&cross_ns));

    let spawn_us: Vec<f64> = (0..200)
        .map(|_| {
            cx.timed("runtime.pool.spawn", "", || run_on_threads(threads, |_| {}))
                .1
                * 1e3
        })
        .collect();
    cx.put("runtime.pool.spawn_us_p50", median(&spawn_us));

    const ITEMS: u64 = 1 << 18;
    let bag: ChunkedBag<u64> = ChunkedBag::new(1);
    let ((), ms) = cx.timed("runtime.worklist.push_pop", "", || {
        for i in 0..ITEMS {
            bag.push(0, i);
        }
        while let Some(item) = bag.pop(0) {
            black_box(item);
        }
    });
    cx.put("runtime.worklist.push_pop_ns", ms * 1e6 / ITEMS as f64);

    let words: Vec<u32> = (0..1u32 << 22).collect();
    let (hash, ms) = cx.timed("runtime.fingerprint.hash", "", || {
        galois_runtime::fingerprint::hash_u32s(black_box(&words))
    });
    black_box(hash);
    cx.put(
        "runtime.fingerprint.hash_mb_s",
        (words.len() * 4) as f64 / 1e6 / (ms / 1e3),
    );
}

/// core::manifest codec and the harness's record / replay paths, on the
/// recording the lockstep workload replicates.
fn manifest_and_replay(cx: &mut Cx, lockstep: &LockstepWorkload) -> Result<(), String> {
    const CODEC_CALLS: u64 = 50;
    let manifest = &lockstep.manifest;
    let json = manifest.to_json();
    let ns = cx.per_call_ns("core.manifest.to_json", CODEC_CALLS, |_| {
        black_box(manifest.to_json());
    });
    cx.put("core.manifest.to_json_us", ns / 1e3);
    let mut parsed = true;
    let ns = cx.per_call_ns("core.manifest.from_json", CODEC_CALLS, |_| {
        parsed &= galois_core::RunManifest::from_json(black_box(&json)).is_ok();
    });
    cx.put("core.manifest.from_json_us", ns / 1e3);
    let op = cx.op();
    cx.check(
        op,
        parsed
            .then_some(())
            .ok_or("manifest did not parse back".to_string()),
    );
    cx.put("core.manifest.bytes", json.len() as f64);

    let exec = executor_for(App::Mis, Variant::Deterministic, 1, None);
    let (mut record_ms, mut replay_ms, mut plain_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..cx.cfg.sizes.probe_reps {
        let (recorded, ms) = cx.timed("harness.record_run", "mis", || {
            galois_harness::record_run(App::Mis, 1, None, &lockstep.input)
        });
        record_ms.push(ms);
        let op = cx.op();
        cx.check(
            op,
            recorded.map_err(|e| e.to_string()).and_then(|m| {
                (m.final_fingerprint == manifest.final_fingerprint)
                    .then_some(())
                    .ok_or("a second recording fingerprints differently".to_string())
            }),
        );
        let (replayed, ms) = cx.timed("harness.replay_run", "mis", || {
            replay_run(manifest, 1, None)
        });
        replay_ms.push(ms);
        let op = cx.op();
        cx.check(op, replayed.map(|_| ()).map_err(|e| e.to_string()));
        // The same load + run + verify with no recorder attached.
        let (plain, ms) = cx.timed("harness.run_cell", "mis", || {
            run_cell(App::Mis, &exec, &lockstep.input, None)
        });
        plain_ms.push(ms);
        let op = cx.op();
        cx.check(
            op,
            match plain {
                Ok((Ok(_), _)) => Ok(()),
                Ok((Err(e), _)) => Err(e.to_string()),
                Err(e) => Err(e),
            },
        );
    }
    cx.put("harness.record_ms_p50", median(&record_ms));
    cx.put("harness.replay_ms_p50", median(&replay_ms));
    cx.put(
        "harness.replay_over_run",
        median(&replay_ms) / median(&plain_ms),
    );
    Ok(())
}

/// harness::InputStore: cold loads of the serve-replay inputs, then warm
/// lookups of the same keys.
fn store(cx: &mut Cx) {
    const WARM_GETS: usize = 200;
    let cfg = cx.cfg;
    let input_of = |app: App, size| InputConfig {
        seed: cfg.input_seed(300 + app as u64),
        size: Some(size),
        ..InputConfig::default()
    };
    let (mut cold_ms, mut warm_us) = (Vec::new(), Vec::new());
    for rep in 0..cfg.sizes.probe_reps {
        let store = InputStore::new(None);
        let cacheable = cfg.sizes.replay.iter().filter(|(a, _)| *a != App::Dmr);
        for &(app, size) in cacheable.clone() {
            let input = input_of(app, size);
            let ((_, residency), ms) =
                cx.timed("harness.store.get", app.name(), || store.get(app, &input));
            if residency == Residency::Cold {
                cold_ms.push(ms);
            }
        }
        if rep > 0 {
            continue;
        }
        for &(app, size) in cacheable {
            let input = input_of(app, size);
            for _ in 0..WARM_GETS {
                let t = Instant::now();
                let (_, residency) = store.get(app, &input);
                warm_us.push(t.elapsed().as_secs_f64() * 1e6);
                black_box(residency);
            }
        }
        let op = cx.op();
        let snap = store.snapshot();
        cx.check(
            op,
            (snap.warm_hits == (WARM_GETS * 5) as u64 && snap.cold_loads == 5)
                .then_some(())
                .ok_or(format!("store counted {snap:?}")),
        );
    }
    cx.put_median("harness.store.warm_get_us_p50", &warm_us);
    cx.put_median("harness.store.cold_get_ms_p50", &cold_ms);
}

/// serve HTTP: a fixed number of each service workload's own ops, traced.
fn service(cx: &mut Cx) -> Result<(), String> {
    // Per repetition; the replay mix needs 8 ops per client whatever the
    // repetitions, for every client to make a cold cycle and client 0 its
    // dmr cycle.
    const HEALTHZ: usize = 10;
    const WARM_OPS: u64 = 5;
    const REPLAY_OPS: u64 = 8;
    const PARSE_CALLS: u64 = 20_000;

    let body = "{\"app\":\"mis\",\"threads\":1,\"seed\":123456789,\"size\":20000,\
                \"round_log\":true,\"manifest\":true}";
    let mut parsed = true;
    let ns = cx.per_call_ns("serve.json.parse", PARSE_CALLS, |_| {
        parsed &= RunRequest::parse(black_box(body)).is_ok();
    });
    cx.put("serve.json.parse_us", ns / 1e3);
    let op = cx.op();
    cx.check(
        op,
        parsed
            .then_some(())
            .ok_or("request did not parse".to_string()),
    );

    let warm = ServeWorkload::setup(cx.cfg, Mix::Warm)?;
    let mut rtt_us = Vec::new();
    let reps = cx.cfg.sizes.probe_reps;
    for _ in 0..HEALTHZ * reps {
        let op = cx.op();
        let span = cx.tr.enter("serve.client.healthz", "", op, None);
        let rtt = warm.healthz_ms();
        cx.tr.exit(span);
        rtt_us.extend(cx.check(op, rtt).map(|ms| ms * 1e3));
    }
    cx.put_median("serve.healthz_rtt_us_p50", &rtt_us);
    let trace = cx.sample(&warm, WARM_OPS * reps as u64);
    drop(warm);

    let client_ms = trace.durations_ms("serve.client.run", "");
    let server_ms = trace.durations_ms("serve.server", "");
    // Socket, read, parse, write and queueing: what the client waited that
    // the server does not account for.
    let residue: Vec<f64> = client_ms
        .iter()
        .zip(&server_ms)
        .map(|(c, s)| c - s)
        .collect();
    cx.put_median("serve.server_ms_p50", &server_ms);
    cx.put_median("serve.residue_ms_p50", &residue);
    cx.put(
        "serve.residue_share",
        residue.iter().sum::<f64>() / client_ms.iter().sum::<f64>(),
    );
    cx.put_median(
        "serve.req_bytes_p50",
        &trace.count_values("serve.req_bytes"),
    );
    cx.put_median(
        "serve.body_bytes_p50",
        &trace.count_values("serve.body_bytes"),
    );
    cx.put_median("serve.warm_ms_p50", &client_ms);
    for app in SERVE_APPS.iter().filter(|a| **a != "dmr") {
        cx.put_median(
            format!("serve.{app}.client_ms_p50"),
            &trace.durations_ms("serve.client.run", app),
        );
    }

    let replay = ServeWorkload::setup(cx.cfg, Mix::Replay)?;
    let trace = cx.sample(&replay, REPLAY_OPS);
    let stats = replay.stats()?;
    drop(replay);

    let cold_ops: Vec<u64> = trace
        .counts
        .iter()
        .filter(|c| c.name == "serve.cold")
        .map(|c| c.op)
        .collect();
    let is_request = |s: &&Span| s.name == "serve.client.run" || s.name == "serve.client.replay";
    let cold: Vec<&Span> = trace
        .spans
        .iter()
        .filter(|s| s.name == "serve.client.run" && cold_ops.contains(&s.op))
        .collect();
    cx.put_median(
        "serve.cold_ms_p50",
        &cold.iter().map(|s| s.ms()).collect::<Vec<_>>(),
    );
    cx.put_median(
        "serve.replay_ms_p50",
        &trace.durations_ms("serve.client.replay", ""),
    );
    // The slowest request of another client that was in flight while some
    // cold load held the store lock (0 with a single client).
    let stall = trace
        .spans
        .iter()
        .filter(is_request)
        .filter(|s| !cold_ops.contains(&s.op) && cold.iter().any(|c| c.overlaps(s)))
        .map(Span::ms)
        .fold(0.0, f64::max);
    cx.put("serve.stall_ms_max", stall);
    for key in ["cold_loads", "warm_hits", "rebuilds"] {
        let n: f64 = json_field(&stats, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("/stats has no {key}"))?;
        cx.put(format!("serve.store.{key}"), n);
    }
    // dmr is only requested by the replay mix.
    cx.put_median(
        "serve.dmr.client_ms_p50",
        &trace.durations_ms("serve.client.run", "dmr"),
    );
    Ok(())
}

/// Frames over a loopback socket pair: one ROUND out, one back.
fn frame_round_trips(n: usize) -> Result<Vec<f64>, String> {
    let io = |e: std::io::Error| format!("frame echo: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let budget = Duration::from_secs(10);
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> Result<(), String> {
            let (mut peer, _) = listener.accept().map_err(io)?;
            peer.set_read_timeout(Some(galois_serve::http::READ_TIMEOUT))
                .map_err(io)?;
            for _ in 0..n {
                let frame = wire::read_frame(&mut peer, budget).map_err(|e| e.to_string())?;
                wire::write_frame(&mut peer, &frame).map_err(io)?;
            }
            Ok(())
        });
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream
            .set_read_timeout(Some(galois_serve::http::READ_TIMEOUT))
            .map_err(io)?;
        let mut rtt_us = Vec::with_capacity(n);
        for seq in 0..n as u64 {
            let frame = Frame::Round { seq, hash: !seq };
            let t = Instant::now();
            wire::write_frame(&mut stream, &frame).map_err(io)?;
            let back = wire::read_frame(&mut stream, budget).map_err(|e| e.to_string())?;
            rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            if back != frame {
                return Err("frame echo: frame changed in flight".into());
            }
        }
        echo.join().expect("echo thread panicked")?;
        Ok(rtt_us)
    })
}

/// Time for one replica to join: connect, HELLO, and the JOB frame carrying
/// the manifest back. The replica then hangs up, which ends the session.
fn join_ms(lockstep: &LockstepWorkload) -> Result<f64, String> {
    let config = LockstepConfig {
        replicas: 1,
        ..LockstepConfig::default()
    };
    let coordinator = Coordinator::bind(lockstep.manifest.clone(), config, "127.0.0.1:0")
        .map_err(|e| format!("coordinator bind: {e}"))?;
    let addr = coordinator.addr();
    std::thread::scope(|s| {
        let session = s.spawn(move || coordinator.run());
        let io = |e: std::io::Error| format!("join: {e}");
        let t = Instant::now();
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream
            .set_read_timeout(Some(galois_serve::http::READ_TIMEOUT))
            .map_err(io)?;
        wire::write_frame(
            &mut stream,
            &Frame::Hello {
                version: wire::WIRE_VERSION,
            },
        )
        .map_err(io)?;
        let job =
            wire::read_frame(&mut stream, Duration::from_secs(10)).map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(stream);
        // The abandoned session ends in a refusal; only that it ends matters.
        let _ = session.join().expect("coordinator thread panicked");
        match job {
            Frame::Job { .. } => Ok(ms),
            other => Err(format!("join: expected JOB, got {other:?}")),
        }
    })
}

/// serve::wire by direct calls and serve::lockstep through a fixed number of
/// the lockstep workload's own sessions.
fn wire_and_lockstep(cx: &mut Cx, lockstep: &LockstepWorkload) -> Result<(), String> {
    const ENCODES: u64 = 1 << 18;
    const ROUND_TRIPS: usize = 300;
    const JOINS: usize = 5;
    const SESSIONS: u64 = 10;

    let ns = cx.per_call_ns("serve.wire.encode", ENCODES, |i| {
        black_box(Frame::Round { seq: i, hash: !i }.encode());
    });
    cx.put("serve.wire.encode_ns", ns);
    let (rtt, _) = cx.timed("serve.wire.round_trips", "", || {
        frame_round_trips(ROUND_TRIPS)
    });
    cx.put_median("serve.wire.frame_rtt_us_p50", &rtt?);
    let mut joins = Vec::new();
    for _ in 0..JOINS {
        let (ms, _) = cx.timed("serve.lockstep.join", "mis", || join_ms(lockstep));
        let op = cx.op();
        joins.extend(cx.check(op, ms));
    }
    cx.put_median("serve.lockstep.join_ms_p50", &joins);

    let trace = cx.sample(lockstep, SESSIONS);
    let sessions = trace.durations_ms("op", "");
    let rounds: f64 = trace.count_values("serve.lockstep.rounds").iter().sum();
    cx.put(
        "serve.lockstep.rounds_per_s",
        rounds / (sessions.iter().sum::<f64>() / 1e3),
    );
    // A session against the slowest thing in it run alone: one replica's
    // replay of the same recording.
    let solo: Vec<f64> = (0..cx.cfg.sizes.probe_reps.max(3))
        .map(|_| {
            cx.timed("harness.replay_run", "mis", || {
                replay_run(&lockstep.manifest, 1, None)
            })
            .1
        })
        .collect();
    cx.put(
        "serve.lockstep.over_replay",
        median(&sessions) / median(&solo),
    );
    let max = |name| trace.count_values(name).into_iter().fold(0.0, f64::max);
    cx.put(
        "serve.lockstep.max_buffered",
        max("serve.lockstep.max_buffered"),
    );
    cx.put("serve.lockstep.evictions", max("serve.lockstep.evictions"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The names the probes print are the per-layer names of
    /// `BENCHMARK.json`, all of them, at smoke-test sizes.
    #[test]
    fn quick_probes_give_every_per_layer_name_and_fail_nothing() {
        let cfg = Config::new(7, None, true);
        let probed = run(&cfg).expect("probes run");
        assert_eq!(probed.failures, vec![]);
        assert!(probed.attempted > 50);
        let printed: BTreeSet<String> = probed.values.iter().map(|v| v.0.clone()).collect();
        assert_eq!(printed.len(), probed.values.len(), "a name was put twice");
        let expected: BTreeSet<String> = crate::names::per_layer()
            .into_iter()
            .map(|m| m.name)
            .filter(|n| !crate::names::PER_WORKLOAD_LAYERS.contains(&n.as_str()))
            .collect();
        assert_eq!(printed, expected);
        assert!(probed.values.iter().all(|v| v.1.is_finite()));
        assert!(crate::trace::misplaced(&probed.trace.spans, 50.0).is_empty());
    }
}
