//! Regression tests for `GET /stats` coherence: every counter family is
//! snapshotted under ONE lock acquisition, so a reader can never observe a
//! torn tally (e.g. a request counted in `requests` whose outcome hasn't
//! landed in `ok`/`faults` yet, or a cold load without its resident
//! entry). The pre-fix implementation read nine independent atomics one
//! after another — exactly the race these tests hammer.

use galois_core::json::{self, Value};
use galois_harness::{App, InputConfig, InputStore};
use galois_serve::{client, ServeConfig, ServeStats, Server, StatsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Writers commit paired deltas (`requests` together with exactly one
/// outcome counter, the way `serve_connection` does); every concurrent
/// snapshot must satisfy `requests == ok + faults + bad_requests` exactly.
#[test]
fn concurrent_snapshots_are_never_torn() {
    const WRITERS: usize = 4;
    const COMMITS: u64 = 20_000;
    let stats = Arc::new(ServeStats::default());
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let stats = Arc::clone(&stats);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut observed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let s = stats.snapshot();
                assert_eq!(
                    s.requests,
                    s.ok + s.faults + s.bad_requests,
                    "torn stats snapshot: {s:?}"
                );
                observed += 1;
            }
            observed
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                for i in 0..COMMITS {
                    let mut delta = StatsSnapshot {
                        requests: 1,
                        ..StatsSnapshot::default()
                    };
                    match (w + i as usize) % 3 {
                        0 => delta.ok = 1,
                        1 => delta.faults = 1,
                        _ => delta.bad_requests = 1,
                    }
                    stats.commit(&delta);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let observed = reader.join().unwrap();
    assert!(observed > 0, "reader never snapshotted");

    let s = stats.snapshot();
    assert_eq!(s.requests, WRITERS as u64 * COMMITS);
    assert_eq!(s.requests, s.ok + s.faults + s.bad_requests);
}

/// The input store's counters move atomically with its map: at any moment
/// `resident_inputs == cold_loads` (every cold load inserts exactly one
/// entry, and both change under the same lock).
#[test]
fn store_snapshot_counters_move_with_the_map() {
    const THREADS: usize = 4;
    const GETS: usize = 8;
    let store = Arc::new(InputStore::new(None));
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let s = store.snapshot();
                assert_eq!(
                    s.resident_inputs as u64, s.cold_loads,
                    "cold load visible without its resident entry: {s:?}"
                );
            }
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..GETS {
                    // Mix repeat keys (warm hits) with fresh ones (cold
                    // loads) across threads.
                    let seed = 42 + ((t + i) % 6) as u64;
                    let input = InputConfig {
                        size: Some(64),
                        ..InputConfig::from_seed(seed)
                    };
                    store.get(App::Bfs, &input);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();

    let s = store.snapshot();
    assert_eq!(s.resident_inputs as u64, s.cold_loads);
    assert_eq!(s.cold_loads, 6, "6 distinct seeds were requested");
    assert_eq!(
        s.warm_hits + s.cold_loads,
        (THREADS * GETS) as u64,
        "every get is exactly one warm hit or one cold load"
    );
}

/// An integer field of a `/stats` body, which must be strict JSON.
fn field(body: &str, name: &str) -> u64 {
    json::parse(body)
        .unwrap_or_else(|e| panic!("body is not strict JSON ({e}): {body}"))
        .get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no integer field {name} in {body}"))
}

/// End-to-end: `/stats` responses observed *during* a request storm are
/// internally consistent — outcome tallies never exceed `requests`, and
/// the final body accounts for every request the storm sent.
#[test]
fn stats_endpoint_is_coherent_under_load() {
    const CLIENTS: usize = 3;
    const REQUESTS: usize = 6;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr().to_string();

    let storm: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for i in 0..REQUESTS {
                    // Alternate valid runs and malformed bodies.
                    let body = if (c + i) % 2 == 0 {
                        r#"{"app":"bfs","size":200}"#.to_string()
                    } else {
                        "{\"app\":".to_string()
                    };
                    client::post(&addr, "/run", &body).expect("post /run");
                }
            })
        })
        .collect();
    // Poll /stats while the storm is in flight.
    let mut polls = 0;
    while storm.iter().any(|t| !t.is_finished()) {
        let resp = client::get(&addr, "/stats").expect("get /stats");
        let ok = field(&resp.body, "ok");
        let bad = field(&resp.body, "bad_requests");
        let requests = field(&resp.body, "requests");
        assert!(
            ok + bad <= requests,
            "outcomes outran requests: {}",
            resp.body
        );
        polls += 1;
    }
    for t in storm {
        t.join().unwrap();
    }
    assert!(polls > 0);

    let resp = client::get(&addr, "/stats").expect("final /stats");
    assert_eq!(field(&resp.body, "ok"), (CLIENTS * REQUESTS / 2) as u64);
    assert_eq!(
        field(&resp.body, "bad_requests"),
        (CLIENTS * REQUESTS / 2) as u64
    );
    assert_eq!(field(&resp.body, "worker_panics"), 0);
    client::post(&addr, "/shutdown", "").ok();
    server.wait();
}
