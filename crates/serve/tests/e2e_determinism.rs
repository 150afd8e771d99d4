//! End-to-end determinism battery for `galois-serve`.
//!
//! The service-level restatement of the paper's portability property: the
//! *bytes* of a `/run` response are a pure function of `(app, input key,
//! seed, executor config)` — never of the server's thread budget or cache
//! state. Asserted over live HTTP against a real server:
//!
//! - the same deterministic request at thread budgets
//!   [`sweep::SERVE_THREAD_BUDGETS`] returns byte-identical bodies (only
//!   headers carry budget-dependent facts like residency and timing);
//! - the served fingerprint equals a local [`run_app`] of the same cell —
//!   serving adds nothing and removes nothing from the computation;
//! - the streamed round log re-hashes (via the runtime's own
//!   [`RoundChain`]) to the body's `log_hash`, so a client can audit the
//!   canonical schedule without trusting the server;
//! - the manifest embedded in a response replays bit-identically through
//!   `POST /replay` at a different thread budget, and a tampered manifest
//!   is rejected as diverged (409);
//! - per-stage server time rides `X-Galois-Stage-*-Us` headers that fit
//!   inside `X-Galois-Micros`, and an oversize request is refused without
//!   harming the requests after it.

use galois_core::json::{self, Value};
use galois_harness::sweep::{assert_portable_over, SERVE_THREAD_BUDGETS};
use galois_harness::{record_run, run_app, unperturbed, App, InputConfig, Variant};
use galois_runtime::fingerprint::RoundChain;
use galois_runtime::probe::RoundRecord;
use galois_serve::client::{Client, Response};
use galois_serve::{ServeConfig, Server};

/// Parses a response body, which must be strict JSON — every helper below
/// goes through here, so every body the battery touches is checked.
fn parsed(body: &str) -> Value {
    json::parse(body).unwrap_or_else(|e| panic!("body is not strict JSON ({e}): {body}"))
}

/// The integer under `field` of a response body.
fn json_u64(body: &str, field: &str) -> u64 {
    parsed(body)
        .get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no integer field {field} in {body}"))
}

/// The 16-hex-digit hash under `field` of a response body.
fn json_hex(body: &str, field: &str) -> u64 {
    parsed(body)
        .get(field)
        .and_then(Value::as_hex)
        .unwrap_or_else(|| panic!("no hex hash field {field} in {body}"))
}

/// The `status` string of a response body.
fn json_status(body: &str) -> String {
    parsed(body)
        .get("status")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no status in {body}"))
        .to_string()
}

/// The streamed round log, each entry's chain scalars re-derived.
fn parse_round_log(body: &str) -> Vec<RoundRecord> {
    let scalar = |entry: &Value, name: &str| {
        entry
            .get(name)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("{name} missing in {entry:?}"))
    };
    parsed(body)
        .get("round_log")
        .and_then(Value::as_array)
        .expect("round_log missing")
        .iter()
        .map(|entry| RoundRecord {
            round: scalar(entry, "round"),
            window: scalar(entry, "window"),
            attempted: scalar(entry, "attempted"),
            committed: scalar(entry, "committed"),
            failed: scalar(entry, "failed"),
            ..RoundRecord::default()
        })
        .collect()
}

/// Extracts the embedded manifest object (it is the last field before the
/// response's closing brace) as the bytes the server sent: a manifest is
/// re-posted verbatim, never re-rendered.
fn extract_manifest(body: &str) -> &str {
    let at = body.find("\"manifest\":").expect("manifest missing");
    let obj = &body[at + "\"manifest\":".len()..];
    obj.strip_suffix('}').expect("malformed response tail")
}

#[test]
fn served_bodies_are_byte_identical_across_thread_budgets() {
    let mut handle = Server::start(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(addr);

    for app in [App::Bfs, App::Mis] {
        // assert_portable_over drives the identical request at every serve
        // budget and asserts all results equal — here the "result" is the
        // entire response body. (`manifest` is deliberately not requested:
        // a manifest *documents* the budget it was recorded at, so it is
        // the one response field that legitimately names the thread count;
        // its budget-independence is proven by replay, below.)
        let bodies =
            assert_portable_over(&format!("served {app}"), &SERVE_THREAD_BUDGETS, |threads| {
                let req = format!("{{\"app\":\"{app}\",\"threads\":{threads},\"round_log\":true}}");
                let resp = client.post("/run", &req).unwrap();
                assert_eq!(
                    resp.status, 200,
                    "{app} at {threads} threads: {}",
                    resp.body
                );
                // Budget-dependent facts ride headers, not the body.
                assert!(resp.header("X-Galois-Cache").is_some());
                assert!(resp.header("X-Galois-Micros").is_some());
                resp.body
            });
        let body = &bodies[0];

        // The served fingerprint is the harness's own: a served request
        // and a local differential-sweep cell are the same computation.
        let input = InputConfig::from_seed(42);
        let (local, _) =
            run_app(app, Variant::Deterministic, 2, None, &input, &unperturbed).unwrap();
        assert_eq!(json_hex(body, "fingerprint"), local.fingerprint, "{app}");
        assert_eq!(json_hex(body, "output_hash"), local.output_hash, "{app}");
        assert_eq!(json_u64(body, "rounds"), local.rounds, "{app}");
        assert_eq!(json_u64(body, "committed"), local.committed, "{app}");

        // The streamed round log carries exactly the chain-hashed scalars:
        // re-folding it through the runtime's RoundChain reproduces the
        // body's log_hash, so clients can audit the canonical schedule.
        let records = parse_round_log(body);
        assert_eq!(records.len() as u64, local.rounds, "{app}");
        let mut chain = RoundChain::new();
        for rec in &records {
            chain.push(rec);
        }
        assert_eq!(chain.log_hash(), json_hex(body, "log_hash"), "{app}");
    }
    handle.shutdown();
}

#[test]
fn first_request_is_cold_then_warm() {
    let mut handle = Server::start(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(addr);

    let req = r#"{"app":"mis","threads":2}"#;
    let first = client.post("/run", req).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("X-Galois-Cache"), Some("cold"));
    let second = client.post("/run", req).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Galois-Cache"), Some("warm"));
    // Residency is invisible to results: cold and warm bodies are equal.
    assert_eq!(first.body, second.body);
    // mm shares mis's undirected input — warm on its very first request.
    let mm = client.post("/run", r#"{"app":"mm","threads":2}"#).unwrap();
    assert_eq!(mm.status, 200);
    assert_eq!(mm.header("X-Galois-Cache"), Some("warm"));
    handle.shutdown();
}

#[test]
fn served_manifest_replays_bit_identically() {
    let mut handle = Server::start(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(addr);

    let resp = client
        .post("/run", r#"{"app":"bfs","threads":2,"manifest":true}"#)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let manifest = extract_manifest(&resp.body).to_string();
    let fingerprint = json_hex(&resp.body, "fingerprint");

    // Replay at a *different* thread budget: bit-identity is the point.
    let replay = client.post("/replay?threads=4", &manifest).unwrap();
    assert_eq!(replay.status, 200, "{}", replay.body);
    assert_eq!(json_hex(&replay.body, "fingerprint"), fingerprint);

    // A tampered manifest must be rejected, not silently accepted: flip
    // the recorded fingerprint (to_json re-stamps the checksum, so the
    // parse layer accepts it and the divergence check is what fires).
    let mut doctored = galois_core::RunManifest::from_json(&manifest).unwrap();
    doctored.final_fingerprint ^= 1;
    let replay = client
        .post("/replay?threads=2", &doctored.to_json())
        .unwrap();
    assert_eq!(replay.status, 409, "{}", replay.body);
    assert_eq!(json_status(&replay.body), "diverged");

    // Corrupt bytes (bad checksum) are a 400, before any execution.
    let broken = manifest.replace("\"app\":\"bfs\"", "\"app\":\"mis\"");
    let replay = client.post("/replay", &broken).unwrap();
    assert_eq!(replay.status, 400, "{}", replay.body);

    // A pfp draw with a cut-off source commits nothing and runs no round
    // (seed 29 at size 200). It is still a run: it serves, records a
    // zero-round manifest and replays — this request used to panic the
    // worker into a 500.
    let resp = client
        .post(
            "/run",
            r#"{"app":"pfp","seed":29,"size":200,"threads":1,"manifest":true}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(json_u64(&resp.body, "rounds"), 0, "{}", resp.body);
    let manifest = extract_manifest(&resp.body).to_string();
    for threads in [1, 2, 4] {
        let replay = client
            .post(&format!("/replay?threads={threads}"), &manifest)
            .unwrap();
        assert_eq!(replay.status, 200, "{}", replay.body);
        assert_eq!(
            json_hex(&replay.body, "fingerprint"),
            json_hex(&resp.body, "fingerprint")
        );
    }
    handle.shutdown();
}

/// Sealed manifests are client input: a field the executor cannot take must
/// get a structured answer, never a worker panic or a dead server.
#[test]
fn hostile_manifest_fields_get_structured_answers() {
    let mut handle = Server::start(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(addr);

    let resp = client
        .post("/run", r#"{"app":"bfs","size":2000,"manifest":true}"#)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let manifest = galois_core::RunManifest::from_json(extract_manifest(&resp.body)).unwrap();

    // A locality spread of 2^40 once sized 2^40 buckets and aborted the
    // whole process on the failed allocation.
    let mut spread = manifest.clone();
    spread.exec.locality_spread = 1 << 40;
    let replay = client.post("/replay", &spread.to_json()).unwrap();
    assert!(
        matches!(replay.status, 200 | 409),
        "{}: {}",
        replay.status,
        replay.body
    );
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    // Zero budgets trip the executor builder's asserts: refuse them at parse.
    let mut zero_stall = manifest.clone();
    zero_stall.exec.max_stalled_rounds = 0;
    let mut zero_threads = manifest;
    zero_threads.exec.threads = 0;
    for doctored in [zero_stall, zero_threads] {
        let replay = client.post("/replay", &doctored.to_json()).unwrap();
        assert_eq!(replay.status, 400, "{}", replay.body);
        assert_eq!(json_status(&replay.body), "error");
    }
    let stats = client.get("/stats").unwrap();
    assert_eq!(json_u64(&stats.body, "bad_requests"), 2);
    assert_eq!(json_u64(&stats.body, "worker_panics"), 0);
    handle.shutdown();
}

#[test]
fn malformed_run_requests_are_structured_400s() {
    let mut handle = Server::start(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(addr);

    for (body, why) in [
        ("{", "truncated JSON"),
        ("{}", "missing app"),
        (r#"{"app":"nope"}"#, "unknown app"),
        (r#"{"app":"bfs","threads":0}"#, "zero budget"),
        (r#"{"app":"bfs","frobnicate":1}"#, "unknown field"),
        (r#"{"app":"bfs","size":{"n":1}}"#, "nested value"),
        (r#"{"app":"bfs","variant":"pbbs"}"#, "pbbs is not served"),
    ] {
        let resp = client.post("/run", body).unwrap();
        assert_eq!(resp.status, 400, "{why}: {}", resp.body);
        assert_eq!(json_status(&resp.body), "error", "{why}");
    }
    // The rejections were counted, and nothing executed.
    let stats = client.get("/stats").unwrap();
    assert_eq!(json_u64(&stats.body, "bad_requests"), 7);
    assert_eq!(json_u64(&stats.body, "ok"), 0);
    handle.shutdown();
}

/// Only deterministic runs have rounds: a speculative `/run` asking for a
/// round log is refused the same way as one asking for a manifest.
#[test]
fn round_log_requires_the_deterministic_variant() {
    let mut handle = Server::start(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(addr);

    for (body, field) in [
        (
            r#"{"app":"bfs","variant":"g-n","round_log":true}"#,
            "round_log",
        ),
        (
            r#"{"app":"bfs","variant":"g-n","manifest":true}"#,
            "manifest",
        ),
    ] {
        let resp = client.post("/run", body).unwrap();
        assert_eq!(resp.status, 400, "{field}: {}", resp.body);
        assert_eq!(json_status(&resp.body), "error", "{field}");
        let expected = format!("`{field}` requires the deterministic variant");
        assert_eq!(
            parsed(&resp.body).get("error").and_then(Value::as_str),
            Some(expected.as_str())
        );
    }
    let stats = client.get("/stats").unwrap();
    assert_eq!(json_u64(&stats.body, "bad_requests"), 2);
    assert_eq!(json_u64(&stats.body, "ok"), 0);
    handle.shutdown();
}

/// The bodies the tests above do not read — liveness, an unknown route,
/// rejected replays, a contained fault, and a `/run` carrying round log and
/// manifest at once — are strict JSON too. (`/run` 200, `/replay` 200 and
/// 409, the request 400s and `/stats` are parsed where they are asserted.)
#[test]
fn every_other_body_is_strict_json() {
    let mut handle = Server::start(ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let mut client = Client::new(addr);

    assert_eq!(json_status(&client.get("/healthz").unwrap().body), "ok");
    let missing = client.get("/nope").unwrap();
    assert_eq!(
        (missing.status, json_status(&missing.body).as_str()),
        (404, "error")
    );

    // Round log and manifest together: the embedded manifest is part of the
    // tree, and its bytes are a loadable manifest that agrees with it.
    let full = client
        .post(
            "/run",
            r#"{"app":"mis","size":300,"round_log":true,"manifest":true}"#,
        )
        .unwrap();
    assert_eq!(full.status, 200, "{}", full.body);
    let manifest_text = extract_manifest(&full.body).to_string();
    let manifest = galois_core::RunManifest::from_json(&manifest_text).unwrap();
    let doc = parsed(&full.body);
    let embedded = doc.get("manifest").expect("manifest in the tree");
    assert_eq!(
        embedded.get("final_fingerprint").and_then(Value::as_hex),
        Some(manifest.final_fingerprint)
    );
    assert_eq!(
        parse_round_log(&full.body).len(),
        manifest.round_hashes.len()
    );

    // Rejected replays: no envelope, a bad checksum, an out-of-range budget.
    let tampered = manifest_text.replace("\"app\":\"mis\"", "\"app\":\"bfs\"");
    for (target, body) in [
        ("/replay", "{}"),
        ("/replay", tampered.as_str()),
        ("/replay?threads=0", manifest_text.as_str()),
    ] {
        let resp = client.post(target, body).unwrap();
        assert_eq!(resp.status, 400, "{target}: {}", resp.body);
        assert_eq!(json_status(&resp.body), "error", "{target}");
    }

    // A contained fault (panic injection faults a 2000-task run for
    // essentially every seed; scan a few so no single draw matters).
    let fault = (1u64..=5)
        .map(|seed| {
            let req = format!("{{\"app\":\"bfs\",\"chaos_panics\":{seed}}}");
            client.post("/run", &req).unwrap()
        })
        .find(|resp| resp.status == 500)
        .expect("no panic seed in 1..=5 faulted");
    assert_eq!(json_status(&fault.body), "fault");
    assert_eq!(json_u64(&fault.body, "exit_code"), 10);
    handle.shutdown();
}

/// The integer value of header `name`, which must be present.
fn header_u64(resp: &Response, name: &str) -> u64 {
    resp.header(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no integer header {name} in {:?}", resp.headers))
}

/// The sum of the named `X-Galois-Stage-*-Us` headers, each required.
fn staged_micros(resp: &Response, stages: &[&str]) -> u64 {
    stages
        .iter()
        .map(|stage| header_u64(resp, &format!("X-Galois-Stage-{stage}-Us")))
        .sum()
}

/// Per-stage server time rides headers: every stage is reported on a 200,
/// the in-server stages fit inside `X-Galois-Micros` (`Read` lies before
/// it), and the bodies stay byte-identical at every budget, cold and warm.
#[test]
fn stage_headers_decompose_server_time() {
    let manifest = record_run(
        App::Bfs,
        2,
        None,
        &InputConfig {
            size: Some(1_000),
            ..InputConfig::default()
        },
    )
    .unwrap()
    .to_json();
    let mut run_bodies = Vec::new();
    let mut replay_bodies = Vec::new();
    for threads in [1, 2, 4] {
        // A fresh server per budget, so each budget sees a cold request.
        let mut handle = Server::start(ServeConfig::default()).unwrap();
        let mut client = Client::new(handle.addr().to_string());
        for residency in ["cold", "warm"] {
            let req = format!(r#"{{"app":"mis","size":500,"threads":{threads},"round_log":true}}"#);
            let run = client.post("/run", &req).unwrap();
            assert_eq!(run.status, 200, "{}", run.body);
            assert_eq!(run.header("X-Galois-Cache"), Some(residency));
            let staged = staged_micros(&run, &["Parse", "Store", "Run", "Serialize"]);
            assert!(
                staged <= header_u64(&run, "X-Galois-Micros"),
                "{:?}",
                run.headers
            );
            header_u64(&run, "X-Galois-Stage-Read-Us");
            run_bodies.push(run.body);

            let replay = client
                .post(&format!("/replay?threads={threads}"), &manifest)
                .unwrap();
            assert_eq!(replay.status, 200, "{}", replay.body);
            let staged = staged_micros(&replay, &["Parse", "Run", "Serialize"]);
            assert!(staged <= header_u64(&replay, "X-Galois-Micros"));
            header_u64(&replay, "X-Galois-Stage-Read-Us");
            assert_eq!(replay.header("X-Galois-Stage-Store-Us"), None);
            replay_bodies.push(replay.body);
        }
        handle.shutdown();
    }
    for bodies in [&run_bodies, &replay_bodies] {
        assert!(bodies.iter().all(|b| b == &bodies[0]), "{bodies:#?}");
    }
}

/// One request naming an impossible size once panicked a build while the
/// input store held its lock, and every later request then hit the
/// poisoned lock. It is refused at parse now, and the next tenant's answer
/// is the one a fresh server gives.
#[test]
fn an_oversize_request_leaves_the_service_whole() {
    let mis = r#"{"app":"mis","size":100}"#;
    let fresh = {
        let mut handle = Server::start(ServeConfig::default()).unwrap();
        let resp = Client::new(handle.addr().to_string())
            .post("/run", mis)
            .unwrap();
        handle.shutdown();
        resp.body
    };

    let mut handle = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::new(handle.addr().to_string());
    assert_eq!(client.post("/run", mis).unwrap().status, 200);
    let hostile = client
        .post("/run", r#"{"app":"bfs","size":18446744073709551615}"#)
        .unwrap();
    assert_eq!(hostile.status, 400, "{}", hostile.body);
    assert_eq!(json_status(&hostile.body), "error");

    // The same size in a re-signed manifest whose input key matches it.
    let mut manifest = record_run(App::Mis, 2, None, &InputConfig::default()).unwrap();
    manifest.size = u64::MAX;
    manifest.input_key = App::Mis.input_key(u64::MAX as usize, manifest.input_seed);
    let replay = client.post("/replay", &manifest.to_json()).unwrap();
    assert_eq!(replay.status, 400, "{}", replay.body);

    let again = client.post("/run", mis).unwrap();
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(again.body, fresh);
    let stats = client.get("/stats").unwrap();
    assert_eq!(json_u64(&stats.body, "worker_panics"), 0);
    handle.shutdown();
}
