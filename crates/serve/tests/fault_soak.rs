//! Multi-tenant fault isolation and concurrency soak for `galois-serve`.
//!
//! The serving restatement of PR-5's containment property: one tenant's
//! faulting run is quarantined into a *structured, deterministic* error
//! response while concurrent clean tenants complete normally — the
//! process never dies, and the fault report itself is byte-identical at
//! any thread budget. Plus a soak: 16 simultaneous keep-alive clients
//! over mixed apps, timeout-bounded, with exact warm/cold cache
//! accounting asserted afterwards (the store counters are deterministic
//! even under concurrency, because builds happen under the store lock).

use galois_core::json::{self, Value};
use galois_serve::client::Client;
use galois_serve::{ServeConfig, Server};
use std::sync::mpsc;
use std::time::Duration;

/// An integer field of a response body, which must be strict JSON.
fn json_u64(body: &str, field: &str) -> u64 {
    json::parse(body)
        .unwrap_or_else(|e| panic!("body is not strict JSON ({e}): {body}"))
        .get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no integer field {field} in {body}"))
}

#[test]
fn faulting_tenant_is_quarantined_while_clean_tenants_complete() {
    let mut handle = Server::start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // Clean tenants run concurrently with the faulting one below; each
    // reports its outcomes through the channel so a hung request fails
    // the test with a timeout instead of wedging the suite.
    let (tx, rx) = mpsc::channel::<Result<(), String>>();
    let clean_threads: Vec<_> = ["mis", "pfp"]
        .into_iter()
        .map(|app| {
            let addr = addr.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let mut check = || -> Result<(), String> {
                    for _ in 0..2 {
                        let body = format!("{{\"app\":\"{app}\",\"threads\":2}}");
                        let resp = client.post("/run", &body)?;
                        if resp.status != 200 {
                            return Err(format!("{app} -> HTTP {}: {}", resp.status, resp.body));
                        }
                    }
                    Ok(())
                };
                tx.send(check()).unwrap();
            })
        })
        .collect();

    // The faulting tenant: panic injection arms roughly one fault per 64
    // failsafe crossings, so a 2000-task bfs run faults for essentially
    // every seed — scan a handful so the test never depends on one draw.
    let mut chaos = Client::new(addr.clone());
    let mut fault_seed = None;
    for seed in 1u64..=5 {
        let body = format!("{{\"app\":\"bfs\",\"threads\":2,\"chaos_panics\":{seed}}}");
        let resp = chaos.post("/run", &body).unwrap();
        if resp.status == 500 && resp.body.contains("\"status\":\"fault\"") {
            fault_seed = Some((seed, resp.body));
            break;
        }
    }
    let (seed, fault_at_2) = fault_seed.expect("no panic seed in 1..=5 faulted a 2000-task run");

    // Structured error surface: kind, exit code, canonical task id/round.
    assert!(
        fault_at_2.contains("\"kind\":\"operator_panic\""),
        "{fault_at_2}"
    );
    assert_eq!(json_u64(&fault_at_2, "exit_code"), 10);
    assert!(fault_at_2.contains("\"task_id\":"), "{fault_at_2}");
    assert!(fault_at_2.contains("\"round\":"), "{fault_at_2}");

    // The fault report is deterministic: the same request at a different
    // thread budget produces the byte-identical fault body.
    let body = format!("{{\"app\":\"bfs\",\"threads\":4,\"chaos_panics\":{seed}}}");
    let resp = chaos.post("/run", &body).unwrap();
    assert_eq!(resp.status, 500);
    assert_eq!(
        resp.body, fault_at_2,
        "fault body changed between budgets 2 and 4"
    );

    // Clean tenants were unaffected by the quarantined faults.
    for _ in &clean_threads {
        rx.recv_timeout(Duration::from_secs(300))
            .expect("clean tenant timed out")
            .unwrap();
    }
    for t in clean_threads {
        t.join().unwrap();
    }

    // The process survived: liveness holds, the faults were counted as
    // contained run faults, and no worker-level panic ever fired.
    let mut client = Client::new(addr);
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let stats = client.get("/stats").unwrap();
    assert!(json_u64(&stats.body, "faults") >= 2, "{}", stats.body);
    assert_eq!(json_u64(&stats.body, "worker_panics"), 0, "{}", stats.body);
    // 4 clean-tenant runs, plus any scanned panic seeds that drew no fault.
    assert!(json_u64(&stats.body, "ok") >= 4, "{}", stats.body);
    handle.shutdown();
}

#[test]
fn sixteen_concurrent_clients_soak_with_exact_cache_accounting() {
    const CLIENTS: usize = 16;
    const REQUESTS: usize = 3;
    let apps = ["bfs", "mis", "mm", "pfp"];

    let mut handle = Server::start(ServeConfig {
        workers: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // Every client reports (app, body) per response; recv_timeout bounds
    // the whole soak so a stuck worker fails fast instead of hanging CI.
    let (tx, rx) = mpsc::channel::<Result<Vec<(String, String)>, String>>();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let mut run = || -> Result<Vec<(String, String)>, String> {
                    let mut out = Vec::with_capacity(REQUESTS);
                    for i in 0..REQUESTS {
                        let app = apps[(c + i) % apps.len()];
                        let budget = 1 + (c + i) % 2;
                        let body = format!("{{\"app\":\"{app}\",\"threads\":{budget}}}");
                        let resp = client.post("/run", &body)?;
                        if resp.status != 200 {
                            return Err(format!(
                                "client {c} {app} -> HTTP {}: {}",
                                resp.status, resp.body
                            ));
                        }
                        out.push((app.to_string(), resp.body));
                    }
                    Ok(out)
                };
                tx.send(run()).unwrap();
            })
        })
        .collect();

    let mut by_app: Vec<(String, String)> = Vec::new();
    for _ in 0..CLIENTS {
        let batch = rx
            .recv_timeout(Duration::from_secs(300))
            .expect("soak client timed out")
            .unwrap();
        by_app.extend(batch);
    }
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(by_app.len(), CLIENTS * REQUESTS);

    // Bodies exclude the thread budget, so every response for one app —
    // across clients, budgets 1 and 2, warm and cold — is byte-identical.
    for app in apps {
        let bodies: Vec<&str> = by_app
            .iter()
            .filter(|(a, _)| a == app)
            .map(|(_, b)| b.as_str())
            .collect();
        assert!(bodies.len() >= CLIENTS * REQUESTS / apps.len());
        for b in &bodies[1..] {
            assert_eq!(*b, bodies[0], "{app} responses diverged under concurrency");
        }
    }

    // Exact cache accounting: bfs, the shared mis/mm graph, and the pfp
    // network each load cold exactly once (builds serialize under the
    // store lock); every other request is a warm hit.
    let mut client = Client::new(addr);
    let stats = client.get("/stats").unwrap();
    assert_eq!(json_u64(&stats.body, "cold_loads"), 3, "{}", stats.body);
    assert_eq!(
        json_u64(&stats.body, "warm_hits"),
        (CLIENTS * REQUESTS - 3) as u64,
        "{}",
        stats.body
    );
    assert_eq!(
        json_u64(&stats.body, "resident_inputs"),
        3,
        "{}",
        stats.body
    );
    assert_eq!(json_u64(&stats.body, "ok"), (CLIENTS * REQUESTS) as u64);
    assert_eq!(json_u64(&stats.body, "worker_panics"), 0);
    handle.shutdown();
}
