//! One benchmark for the whole stack. See `README.md` beside this crate
//! for the glossary of workloads and metrics and how to compare commits.
//!
//! ```text
//! galois-benchmark                      every workload untraced, then traced
//! galois-benchmark --quick              the same at smoke-test sizes
//! galois-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                       one run, one JSON result line
//! galois-benchmark --aa N               two sets of N runs; spread vs bound
//! ```

mod aa;
mod config;
mod exec;
mod lockstep;
mod measure;
mod names;
mod probes;
mod runner;
mod serve;
mod trace;

use config::Config;
use galois_harness::{App, Variant};
use runner::{end_to_end, run_window, Metric, Ops, Until, Window, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Ops each client runs before anything is timed: caches filled, inputs
/// resident, connections open.
const WARM_UP_OPS: u64 = 3;
/// Share of `--seconds` a traced run gives each of its two windows (spans
/// off, spans on); the probes take about the rest.
const TRACED_WINDOW_SHARE: f64 = 0.3;
/// Window length of `--quick`, in seconds.
const QUICK_SECONDS: f64 = 0.2;
/// Most set-ups one run makes (see `Sizes::setup_budget_s`).
const MAX_SETUP_REPS: usize = 25;
/// A child span may start or end this far outside its parent before the
/// trace is called inconsistent (clock reads on two threads).
const SPAN_SLACK_US: f64 = 50.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    threads: Option<usize>,
    aa: Option<usize>,
}

const USAGE: &str = "usage: galois-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--threads N] [--aa N] [--print-benchmark-json]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: config::DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        threads: None,
        aa: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--threads" => args.threads = Some(number(value()?)? as usize),
            "--aa" => args.aa = Some(number(value()?)? as usize),
            "--quick" => args.quick = true,
            "--print-benchmark-json" => {
                print!("{}", names::benchmark_json());
                std::process::exit(0);
            }
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    if let Some(w) = &args.workload {
        if !names::WORKLOADS.iter().any(|known| known.name == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    if args.threads == Some(0) || args.seconds.is_some_and(|s| s <= 0.0) {
        return Err("--threads and --seconds must be positive".into());
    }
    Ok(args)
}

fn setup(name: &str, cfg: &Config) -> Result<Box<dyn Workload>, String> {
    use exec::ExecWorkload;
    let det = Variant::Deterministic;
    let all = [App::Bfs, App::Mis, App::Mm, App::Dt, App::Dmr];
    Ok(match name {
        "exec-bulk" => Box::new(ExecWorkload::setup(cfg, det, &all[..2])?),
        "exec-rounds" => Box::new(ExecWorkload::setup(cfg, det, &all[2..])?),
        "exec-spec" => Box::new(ExecWorkload::setup(cfg, Variant::Speculative, &all)?),
        "serve-warm" => Box::new(serve::ServeWorkload::setup(cfg, serve::Mix::Warm)?),
        "serve-replay" => Box::new(serve::ServeWorkload::setup(cfg, serve::Mix::Replay)?),
        "lockstep" => Box::new(lockstep::LockstepWorkload::setup(cfg)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// One workload, set up and measured.
struct Measured {
    /// Median over the set-ups made.
    setup_s: f64,
    /// The window measured with spans off.
    untraced: Window,
    /// The window measured with spans on, if asked for.
    traced: Option<Window>,
    /// `VmHWM` after the untraced window, before anything else allocates.
    peak_rss_mb: f64,
}

/// Sets `name` up (several times: `setup_s` is the median, and only the
/// last set-up is kept), warms it, and measures one untraced window and
/// optionally one traced window on the same set-up.
fn measure_workload(
    name: &str,
    cfg: &Config,
    untraced: Duration,
    traced: Option<Duration>,
) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut workload = None;
    while setups.len() < cfg.sizes.setup_reps
        || (setups.len() < MAX_SETUP_REPS && setups.iter().sum::<f64>() < cfg.sizes.setup_budget_s)
    {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(setup(name, cfg)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let workload = workload.expect("at least one set-up");
    let ops = |first| Ops { first, id_base: 0 };
    let warm = run_window(&*workload, ops(0), Until::Ops(WARM_UP_OPS), false);
    if let Some((op, reason)) = warm.failures.first() {
        return Err(format!("{name}: warm-up op {op} failed: {reason}"));
    }
    let window =
        |first, length, spans| run_window(&*workload, ops(first), Until::Elapsed(length), spans);
    let untraced = window(WARM_UP_OPS, untraced, false);
    // Continue each client's sequence where the first window stopped, so
    // no op id and no fresh-seed request repeats.
    let next = WARM_UP_OPS + untraced.attempted();
    let peak_rss_mb = measure::peak_rss_mb();
    Ok(Measured {
        peak_rss_mb,
        setup_s: measure::median(&setups),
        traced: traced.map(|length| window(next, length, true)),
        untraced,
    })
}

/// A failed op, named by the workload (or `probes`) and op id.
type Failure = (String, u64, String);

fn print_metrics(scope: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("metric {scope} {} {} {}", m.name, m.value, m.unit);
    }
}

fn print_failures(failures: &[Failure]) {
    for (scope, op, reason) in failures {
        println!("failed-op {scope} {op} {reason}");
    }
}

fn tag(scope: &str, failures: Vec<(u64, String)>) -> Vec<Failure> {
    failures
        .into_iter()
        .map(|(op, reason)| (scope.to_string(), op, reason))
        .collect()
}

/// The per-layer metrics that belong to the measured workload, not to the
/// probes: `process.cpu_s_per_op` (user + system CPU of the whole process
/// over the window with spans off — what a spinning barrier costs on a
/// shared box), `process.peak_rss_mb`, and `trace.overhead_share` (what
/// recording spans added to the median op).
fn workload_layer_metrics(m: &Measured) -> Vec<Metric> {
    let traced = m.traced.as_ref().expect("a traced window was asked for");
    let off = measure::rank_percentile(&m.untraced.latency_ms, 0.5);
    let on = measure::rank_percentile(&traced.latency_ms, 0.5);
    vec![
        Metric {
            name: "process.cpu_s_per_op".into(),
            value: m.untraced.cpu_s / m.untraced.attempted() as f64,
            unit: "s",
        },
        Metric {
            name: "process.peak_rss_mb".into(),
            value: m.peak_rss_mb,
            unit: "MB",
        },
        Metric {
            name: "trace.overhead_share".into(),
            value: (on - off) / off,
            unit: "ratio",
        },
    ]
}

/// Writes `benchmark/out/trace-<name>.jsonl`, stamp first, and returns the
/// spans found outside their parents (an inconsistent trace is a failure).
fn write_trace(name: &str, stamp: &str, traces: &[&trace::Tracer]) -> Result<Vec<Failure>, String> {
    let dir = probes::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut text = format!("{{\"stamp\":{stamp}}}\n");
    let mut failures = Vec::new();
    for t in traces {
        text.push_str(&t.to_jsonl());
        for id in trace::misplaced(&t.spans, SPAN_SLACK_US) {
            let s = &t.spans[id];
            failures.push((
                name.to_string(),
                s.op,
                format!("span {} `{}` lies outside its parent", id, s.name),
            ));
        }
    }
    let path = dir.join(format!("trace-{name}.jsonl"));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(failures)
}

/// The per-layer metrics in `names::per_layer` order, units attached,
/// but for those in `skip`. A name with no value is left out and said so:
/// the probes withhold `core.det.scale_eff` when oversubscribed.
fn layer_metrics(values: &BTreeMap<String, f64>, skip: &[&str]) -> Vec<Metric> {
    names::per_layer()
        .into_iter()
        .filter(|m| !skip.contains(&m.name.as_str()))
        .filter_map(|m| match values.get(&m.name) {
            Some(&value) => Some(Metric {
                name: m.name,
                value,
                unit: m.unit,
            }),
            None => {
                println!("withheld {}", m.name);
                None
            }
        })
        .collect()
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    )
}

/// A value that is not a finite number cannot be printed as JSON and means
/// a probe divided by nothing: reported as a failure.
fn non_finite(scope: &str, metrics: &mut [Metric]) -> Vec<Failure> {
    let mut failures = Vec::new();
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        failures.push((scope.to_string(), 0, format!("{} is not a number", m.name)));
        m.value = 0.0;
    }
    failures
}

/// `--workload W --trace 0`: the end-to-end metrics of one workload.
fn run_untraced(name: &str, cfg: &Config, seconds: f64) -> Result<Vec<Failure>, String> {
    let m = measure_workload(name, cfg, Duration::from_secs_f64(seconds), None)?;
    let mut e2e = end_to_end(m.setup_s, &m.untraced);
    let mut failures = tag(name, m.untraced.failures);
    failures.extend(non_finite(name, &mut e2e.metrics));
    print_metrics(name, &e2e.metrics);
    println!(
        "samples {name} ops={} op_p90_ms={}",
        e2e.samples,
        if e2e.p90_thin {
            "under-sampled (fewer than 10 ops beyond it)"
        } else {
            "ok"
        }
    );
    print_failures(&failures);
    println!(
        "{}",
        result_line(
            m.untraced.latency_ms.len() as u64,
            failures.len() as u64,
            &e2e.metrics
        )
    );
    Ok(failures)
}

/// `--workload W --trace 1`: every per-layer metric. The workload runs a
/// window with spans off and one with spans on (their difference is the
/// tracing overhead); the layer probes supply the rest.
fn run_traced(name: &str, cfg: &Config, stamp: &str, seconds: f64) -> Result<Vec<Failure>, String> {
    let length = Duration::from_secs_f64(seconds * TRACED_WINDOW_SHARE);
    let m = measure_workload(name, cfg, length, Some(length))?;
    let probed = probes::run(cfg)?;
    let traced = m.traced.as_ref().expect("a traced window was asked for");
    let mut failures = write_trace(name, stamp, &[&traced.trace, &probed.trace])?;
    let mut values: BTreeMap<String, f64> = probed.values.into_iter().collect();
    values.extend(
        workload_layer_metrics(&m)
            .into_iter()
            .map(|o| (o.name, o.value)),
    );
    let attempted = m.untraced.attempted() + traced.attempted() + probed.attempted;
    failures.extend(tag(name, m.untraced.failures));
    failures.extend(tag(name, traced.failures.clone()));
    failures.extend(tag("probes", probed.failures));
    let mut metrics = layer_metrics(&values, &[]);
    failures.extend(non_finite(name, &mut metrics));
    print_metrics(name, &metrics);
    print_failures(&failures);
    println!(
        "{}",
        result_line(attempted, failures.len() as u64, &metrics)
    );
    Ok(failures)
}

/// No `--workload`: every workload untraced for the end-to-end metrics and
/// again traced on the same set-up, then the layer probes once.
fn run_all(cfg: &Config, stamp: &str, seconds: f64) -> Result<Vec<Failure>, String> {
    let mut attempted = 0;
    let mut failures = Vec::new();
    for w in &names::WORKLOADS {
        let m = measure_workload(
            w.name,
            cfg,
            Duration::from_secs_f64(seconds),
            Some(Duration::from_secs_f64(seconds * TRACED_WINDOW_SHARE)),
        )?;
        let mut metrics = end_to_end(m.setup_s, &m.untraced).metrics;
        metrics.extend(workload_layer_metrics(&m));
        failures.extend(non_finite(w.name, &mut metrics));
        print_metrics(w.name, &metrics);
        let traced = m.traced.expect("a traced window was asked for");
        attempted += m.untraced.attempted() + traced.attempted();
        failures.extend(write_trace(w.name, stamp, &[&traced.trace])?);
        failures.extend(tag(w.name, m.untraced.failures));
        failures.extend(tag(w.name, traced.failures));
    }
    let probed = probes::run(cfg)?;
    failures.extend(write_trace("probes", stamp, &[&probed.trace])?);
    // The per-workload layers were printed with each workload above.
    let values = probed.values.into_iter().collect();
    let mut metrics = layer_metrics(&values, &names::PER_WORKLOAD_LAYERS);
    failures.extend(non_finite("probes", &mut metrics));
    print_metrics("probes", &metrics);
    attempted += probed.attempted;
    failures.extend(tag("probes", probed.failures));
    print_failures(&failures);
    println!(
        "summary attempted={attempted} failed={} fail_share={}",
        failures.len(),
        failures.len() as f64 / attempted as f64
    );
    Ok(failures)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("galois-benchmark: {e}");
        std::process::exit(2);
    });
    let cfg = Config::new(args.seed, args.threads, args.quick);
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        names::RUN_SECONDS as f64
    });
    let stamp = cfg.stamp();
    println!("stamp {stamp}");
    let clean = |run: Result<Vec<Failure>, String>| run.map(|failed| failed.is_empty());
    let outcome = match (&args.aa, &args.workload) {
        (Some(runs), _) => aa::run(*runs, seconds, args.quick),
        (None, Some(w)) if args.trace => clean(run_traced(w, &cfg, &stamp, seconds)),
        (None, Some(w)) => clean(run_untraced(w, &cfg, seconds)),
        (None, None) => clean(run_all(&cfg, &stamp, seconds)),
    };
    match outcome {
        Ok(true) => {}
        // Failed ops (or unresolved pairs) were listed above; the exit code
        // says so too.
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("galois-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
