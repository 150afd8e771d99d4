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
//!   is rejected as diverged (409).

use galois_harness::sweep::{assert_portable_over, SERVE_THREAD_BUDGETS};
use galois_harness::{run_app, unperturbed, App, InputConfig, Variant};
use galois_runtime::fingerprint::RoundChain;
use galois_runtime::probe::RoundRecord;
use galois_serve::client::Client;
use galois_serve::{ServeConfig, Server};

/// Pulls `"field":<digits>` out of a response body.
fn json_u64(body: &str, field: &str) -> u64 {
    let pat = format!("\"{field}\":");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("field {field} missing in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("field {field} is not an integer in {body}"))
}

/// Pulls `"field":"<16 hex>"` out of a response body.
fn json_hex(body: &str, field: &str) -> u64 {
    let pat = format!("\"{field}\":\"");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("field {field} missing in {body}"));
    u64::from_str_radix(&body[at + pat.len()..at + pat.len() + 16], 16)
        .unwrap_or_else(|_| panic!("field {field} is not a hex hash in {body}"))
}

/// Extracts the round-log array and re-derives each record's chain scalars.
fn parse_round_log(body: &str) -> Vec<RoundRecord> {
    let at = body.find("\"round_log\":[").expect("round_log missing");
    let tail = &body[at + "\"round_log\":[".len()..];
    let end = tail.find(']').expect("unterminated round_log");
    let mut records = Vec::new();
    for obj in tail[..end].split("},{") {
        let obj = obj.trim_matches(|c| c == '{' || c == '}');
        if obj.is_empty() {
            continue;
        }
        let field = |name: &str| -> u64 {
            let pat = format!("\"{name}\":");
            let s = obj.find(&pat).unwrap_or_else(|| panic!("{name} in {obj}"));
            obj[s + pat.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        records.push(RoundRecord {
            round: field("round"),
            window: field("window"),
            attempted: field("attempted"),
            committed: field("committed"),
            failed: field("failed"),
            ..RoundRecord::default()
        });
    }
    records
}

/// Extracts the embedded manifest object (it is the last field before the
/// response's closing brace).
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
    assert!(replay.body.contains("\"status\":\"diverged\""));

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
    ] {
        let resp = client.post("/run", body).unwrap();
        assert_eq!(resp.status, 400, "{why}: {}", resp.body);
        assert!(resp.body.contains("\"status\":\"error\""), "{why}");
    }
    // The rejections were counted, and nothing executed.
    let stats = client.get("/stats").unwrap();
    assert_eq!(json_u64(&stats.body, "bad_requests"), 6);
    assert_eq!(json_u64(&stats.body, "ok"), 0);
    handle.shutdown();
}
