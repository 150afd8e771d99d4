//! The closed loop every workload runs in, and the end-to-end metrics a
//! measured window reduces to.
//!
//! All three kinds of user — library caller, service client, replication
//! operator — wait for a result before asking for the next, so each client
//! issues its next op only when the previous one has returned. A slow
//! system therefore receives less load; nothing queues behind a stall.

use crate::measure;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// How one op ended. Every op is checked; `error` names what failed.
pub struct OpOutcome {
    /// Operator tasks the op committed (`RunOutcome.committed`).
    pub tasks: u64,
    pub error: Option<String>,
}

impl OpOutcome {
    pub fn failed(reason: impl Into<String>) -> Self {
        OpOutcome {
            tasks: 0,
            error: Some(reason.into()),
        }
    }
}

pub trait Workload: Sync {
    /// Concurrent closed-loop callers.
    fn clients(&self) -> usize;

    /// Client `client`'s `i`th op, spans recorded under op id `op`.
    fn op(&self, client: usize, i: u64, op: u64, tr: &mut Tracer) -> OpOutcome;
}

/// When a window ends: at a deadline, or after so many ops per client.
#[derive(Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    Ops(u64),
}

/// What a window of ops measured.
pub struct Window {
    /// Latency of every op, ascending, in ms.
    pub latency_ms: Vec<f64>,
    pub tasks: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `(op id, reason)` of every failed op.
    pub failures: Vec<(u64, String)>,
    pub trace: Tracer,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.latency_ms.len() as u64
    }
}

/// Which ops a window runs: each client's sequence starts at `first`, and
/// op ids start at `id_base`, so the windows of one run never share an id.
#[derive(Clone, Copy)]
pub struct Ops {
    pub first: u64,
    pub id_base: u64,
}

/// Op ids are unique per window: client in the high part, sequence in the
/// low.
fn op_id(ops: Ops, client: usize, i: u64) -> u64 {
    ops.id_base + client as u64 * 1_000_000 + i
}

struct ClientLog {
    latency_ms: Vec<f64>,
    tasks: u64,
    failures: Vec<(u64, String)>,
    trace: Tracer,
}

fn client_loop(
    w: &dyn Workload,
    client: usize,
    ops: Ops,
    until: Until,
    start: Instant,
    traced: bool,
) -> ClientLog {
    let mut log = ClientLog {
        latency_ms: Vec::new(),
        tasks: 0,
        failures: Vec::new(),
        trace: if traced {
            Tracer::on(start)
        } else {
            Tracer::off()
        },
    };
    let mut i = ops.first;
    loop {
        match until {
            Until::Elapsed(d) if start.elapsed() >= d => break,
            Until::Ops(n) if i - ops.first >= n => break,
            _ => {}
        }
        let id = op_id(ops, client, i);
        let t = Instant::now();
        let out = w.op(client, i, id, &mut log.trace);
        log.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.tasks += out.tasks;
        if let Some(reason) = out.error {
            log.failures.push((id, reason));
        }
        i += 1;
    }
    log
}

/// Runs every client of `w` in a closed loop. An op in flight at the
/// deadline completes and counts; the window's wall time runs until the
/// last client returns.
pub fn run_window(w: &dyn Workload, ops: Ops, until: Until, traced: bool) -> Window {
    let clients = w.clients();
    let cpu0 = measure::cpu_seconds();
    let start = Instant::now();
    let logs: Vec<ClientLog> = if clients == 1 {
        vec![client_loop(w, 0, ops, until, start, traced)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| s.spawn(move || client_loop(w, c, ops, until, start, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = measure::cpu_seconds() - cpu0;
    let mut window = Window {
        latency_ms: Vec::new(),
        tasks: 0,
        wall_s,
        cpu_s,
        failures: Vec::new(),
        trace: if traced {
            Tracer::on(start)
        } else {
            Tracer::off()
        },
    };
    for log in logs {
        window.latency_ms.extend(log.latency_ms);
        window.tasks += log.tasks;
        window.failures.extend(log.failures);
        window.trace.merge(log.trace);
    }
    measure::sort(&mut window.latency_ms);
    window
}

/// A metric value with the unit it is printed in.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics of an untraced window, in `names::END_TO_END`
/// order. `p90_thin` says the window held too few ops for the percentile
/// rule and `op_p90_ms` is a plain nearest-rank value.
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    pub samples: usize,
    pub p90_thin: bool,
}

pub fn end_to_end(setup_s: f64, w: &Window) -> EndToEnd {
    let lat = &w.latency_ms;
    let ops = lat.len() as f64;
    let p90 = measure::percentile(lat, 0.9);
    let values = [
        setup_s,
        measure::rank_percentile(lat, 0.5),
        p90.unwrap_or_else(|_| measure::rank_percentile(lat, 0.9)),
        ops / w.wall_s,
        w.tasks as f64 / w.wall_s,
    ];
    EndToEnd {
        metrics: crate::names::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Metric {
                name: m.name.to_string(),
                value,
                unit: m.unit,
            })
            .collect(),
        samples: lat.len(),
        p90_thin: p90.is_err(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Fake {
        ops: AtomicU64,
    }

    impl Workload for Fake {
        fn clients(&self) -> usize {
            2
        }
        fn op(&self, client: usize, i: u64, op: u64, tr: &mut Tracer) -> OpOutcome {
            self.ops.fetch_add(1, Ordering::Relaxed);
            let root = tr.enter("op", "", op, None);
            tr.exit(root);
            if client == 1 && i == 4 {
                OpOutcome::failed("planted")
            } else {
                OpOutcome {
                    tasks: 10,
                    error: None,
                }
            }
        }
    }

    #[test]
    fn window_counts_every_op_and_lists_failures_by_id() {
        let w = Fake {
            ops: AtomicU64::new(0),
        };
        let ops = Ops {
            first: 3,
            id_base: 0,
        };
        let win = run_window(&w, ops, Until::Ops(5), true);
        assert_eq!(win.attempted(), 10);
        assert_eq!(w.ops.load(Ordering::Relaxed), 10);
        assert_eq!(win.tasks, 90);
        assert_eq!(win.failures, vec![(1_000_004, "planted".to_string())]);
        assert_eq!(win.trace.spans.len(), 10);

        let e2e = end_to_end(0.5, &win);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
        let expect: Vec<&str> = crate::names::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expect);
        assert!(e2e.p90_thin);
        assert!(e2e.metrics.iter().all(|m| m.value > 0.0));
    }
}
