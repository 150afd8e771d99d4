//! The service workloads: `serve-warm` and `serve-replay`.
//!
//! An in-process `galois_serve::Server` with one worker per client, driven
//! by keep-alive `galois_serve::client::Client`s, each in a closed loop and
//! each asking for one executor thread per request: the busy threads are
//! the clients' requests, never more than the cores.

use crate::config::Config;
use crate::exec;
use crate::runner::{OpOutcome, Workload};
use crate::trace::{SpanId, Tracer};
use galois_harness::App;
use galois_serve::client::{Client, Response};
use galois_serve::{ServeConfig, Server, ServerHandle};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// The apps whose inputs stay resident; both mixes rotate over them.
const RESIDENT_APPS: [App; 5] = [App::Bfs, App::Mis, App::Mm, App::Dt, App::Pfp];
/// In `serve-replay` one cycle in this many asks for an input no request
/// has named before, so its load runs cold under the store lock while the
/// other clients' inputs are warm.
const COLD_EVERY: u64 = 8;
/// In `serve-replay` one cycle in this many of client 0 is dmr, whose input
/// is rebuilt per request. One cycle in 16 overall: rare enough that
/// `op_p90_ms` lies among the ordinary cycles, not on the edge of the dmr
/// ones, and on one client only so that two 20 MB mesh arenas never
/// coexist and peak RSS does not depend on how requests happen to overlap.
const DMR_EVERY: u64 = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Thin `POST /run` bodies at the corpus default sizes.
    Warm,
    /// `POST /run` with round log and manifest, then `POST /replay` of it.
    Replay,
}

/// One `/run` request.
#[derive(Clone, Copy)]
struct Ask {
    app: App,
    seed: u64,
    size: Option<usize>,
    fat: bool,
}

impl Ask {
    fn body(&self) -> String {
        let mut body = format!(
            "{{\"app\":\"{}\",\"threads\":1,\"seed\":{}",
            self.app.name(),
            self.seed
        );
        if let Some(n) = self.size {
            body.push_str(&format!(",\"size\":{n}"));
        }
        if self.fat {
            body.push_str(",\"round_log\":true,\"manifest\":true");
        }
        body.push('}');
        body
    }
}

/// A base input (the one every warm request for its app names) and what
/// every response for it must equal.
struct Reference {
    ask: Ask,
    /// Fingerprint of a one-thread run made through the library, not the
    /// service.
    fingerprint: String,
    /// The first response body the service gave for this input.
    body: String,
}

pub struct ServeWorkload {
    mix: Mix,
    cfg: Config,
    refs: HashMap<&'static str, Reference>,
    // Clients drop before the server: closing their connections lets the
    // workers return at once instead of at their next read-timeout tick.
    clients: Vec<Mutex<Client>>,
    _server: ServerHandle,
}

/// The value of top-level field `key` in a response body: the text of a
/// number, or of a string without its quotes. The fields read here all
/// precede the nested `round_log` and `manifest` members, so the first
/// occurrence is the top-level one.
pub fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    match rest.strip_prefix('"') {
        Some(text) => text.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

/// The manifest object embedded as the last member of a `/run` body.
fn embedded_manifest(body: &str) -> Option<&str> {
    let at = body.find("\"manifest\":")? + "\"manifest\":".len();
    body[at..].strip_suffix('}')
}

impl ServeWorkload {
    pub fn setup(cfg: &Config, mix: Mix) -> Result<Self, String> {
        let server = Server::start(ServeConfig {
            workers: cfg.threads,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().to_string();
        let sizes: Vec<(App, Option<usize>)> = match mix {
            Mix::Warm => RESIDENT_APPS.iter().map(|&a| (a, None)).collect(),
            Mix::Replay => cfg
                .sizes
                .replay
                .iter()
                .map(|&(a, n)| (a, Some(n)))
                .collect(),
        };
        let mut w = ServeWorkload {
            mix,
            cfg: cfg.clone(),
            refs: HashMap::new(),
            clients: (0..cfg.threads)
                .map(|_| Mutex::new(Client::new(addr.clone())))
                .collect(),
            _server: server,
        };
        // Make every base input resident and pin what its responses must
        // be from now on: the fingerprint of a one-thread run made through
        // the library, and the first body the service returns.
        let mut tr = Tracer::off();
        for (app, size) in sizes {
            let sized = exec::sized_input(cfg, app, size, 100)?;
            let ask = Ask {
                app,
                seed: sized.config.seed,
                size,
                fat: mix == Mix::Replay,
            };
            let resp = w.post(
                0,
                "/run",
                &ask.body(),
                ("serve.client.run", app),
                0,
                None,
                &mut tr,
            )?;
            w.refs.insert(
                app.name(),
                Reference {
                    ask,
                    fingerprint: format!("{:016x}", sized.reference.fingerprint),
                    body: resp.body,
                },
            );
        }
        Ok(w)
    }

    /// The server's `/stats` body.
    pub fn stats(&self) -> Result<String, String> {
        let resp = self.clients[0].lock().expect("client lock").get("/stats")?;
        Ok(resp.body)
    }

    /// Round-trip time of `GET /healthz` on client 0's connection, in ms.
    pub fn healthz_ms(&self) -> Result<f64, String> {
        let mut client = self.clients[0].lock().expect("client lock");
        let t = Instant::now();
        let resp = client.get("/healthz")?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if resp.status != 200 {
            return Err(format!("/healthz -> HTTP {}", resp.status));
        }
        Ok(ms)
    }

    /// One POST, with a client-side span and the server-reported time as
    /// its child. Any transport error or unexpected status is an `Err`.
    #[allow(clippy::too_many_arguments)]
    fn post(
        &self,
        client: usize,
        target: &str,
        body: &str,
        (span_name, app): (&'static str, App),
        op: u64,
        parent: Option<SpanId>,
        tr: &mut Tracer,
    ) -> Result<Response, String> {
        let span = tr.enter(span_name, app.name(), op, parent);
        let result = self.clients[client]
            .lock()
            .expect("client lock")
            .post(target, body);
        tr.exit(span);
        let resp = result.map_err(|e| format!("{app} {target}: {e}"))?;
        if let Some(id) = span {
            // The server reports how long it held the request, not when:
            // the child span is centred in the client's, and only its
            // length is a measurement.
            let (start, end) = (tr.spans[id].start_us, tr.spans[id].end_us);
            let server_us: f64 = resp
                .header("x-galois-micros")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{app} {target}: no X-Galois-Micros header"))?;
            let server_us = server_us.min(end - start);
            let lead = (end - start - server_us) / 2.0;
            tr.record(
                "serve.server",
                app.name(),
                op,
                span,
                start + lead,
                start + lead + server_us,
            );
            tr.count("serve.req_bytes", op, body.len() as f64);
            tr.count("serve.body_bytes", op, resp.body.len() as f64);
            if resp.header("x-galois-cache") == Some("cold") {
                tr.count("serve.cold", op, 1.0);
            }
        }
        if resp.status != 200 || json_field(&resp.body, "status") != Some("ok") {
            return Err(format!(
                "{app} {target}: HTTP {} {}",
                resp.status,
                &resp.body[..resp.body.len().min(160)]
            ));
        }
        Ok(resp)
    }

    /// `/run`, checked against the pinned reference when there is one.
    /// Returns the response and the tasks it committed.
    fn run(
        &self,
        client: usize,
        ask: &Ask,
        op: u64,
        parent: Option<SpanId>,
        tr: &mut Tracer,
    ) -> Result<(Response, u64), String> {
        let app = ask.app;
        let resp = self.post(
            client,
            "/run",
            &ask.body(),
            ("serve.client.run", app),
            op,
            parent,
            tr,
        )?;
        let reference = &self.refs[app.name()];
        if ask.seed == reference.ask.seed {
            if json_field(&resp.body, "fingerprint") != Some(&reference.fingerprint) {
                return Err(format!(
                    "{app}: served fingerprint {:?} differs from the library's {}",
                    json_field(&resp.body, "fingerprint"),
                    reference.fingerprint
                ));
            }
            if resp.body != reference.body {
                return Err(format!("{app}: response body changed for one input"));
            }
        }
        let tasks = json_field(&resp.body, "committed")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{app}: no committed count in the response"))?;
        Ok((resp, tasks))
    }

    fn warm_op(&self, client: usize, i: u64, op: u64, tr: &mut Tracer) -> Result<u64, String> {
        let root = tr.enter("op", "", op, None);
        let app = RESIDENT_APPS[(i as usize + client) % RESIDENT_APPS.len()];
        let result = self.run(client, &self.refs[app.name()].ask, op, root, tr);
        tr.exit(root);
        result.map(|(_, tasks)| tasks)
    }

    fn replay_op(&self, client: usize, i: u64, op: u64, tr: &mut Tracer) -> Result<u64, String> {
        let root = tr.enter("op", "", op, None);
        // Clients start two apps apart and take their cold cycles half a
        // period apart, so a cold load meets a warm request. Client 0's dmr
        // cycle falls between its cold ones.
        let dmr = client == 0 && i % DMR_EVERY == DMR_EVERY / 2 - 1;
        let app = if dmr {
            App::Dmr
        } else {
            RESIDENT_APPS[(i as usize + 2 * client) % RESIDENT_APPS.len()]
        };
        let mut ask = self.refs[app.name()].ask;
        // Fresh inputs are drawn for the graph and point apps only: a fresh
        // flow network may be one of those that panic the service (see
        // `exec::sized_input`), and dmr has one mesh.
        let fresh = !matches!(app, App::Dmr | App::Pfp);
        if fresh && (i + client as u64 * COLD_EVERY / 2) % COLD_EVERY == COLD_EVERY - 1 {
            // One generator stream per (client, cold cycle): no two
            // requests share a fresh input.
            ask.seed = self
                .cfg
                .input_seed(1_000 + client as u64 * 100_000 + i / COLD_EVERY);
        }
        let result = self
            .run(client, &ask, op, root, tr)
            .and_then(|(resp, tasks)| {
                let manifest = embedded_manifest(&resp.body)
                    .ok_or_else(|| format!("{app}: no manifest in the response"))?;
                let replayed = self.post(
                    client,
                    "/replay?threads=1",
                    manifest,
                    ("serve.client.replay", app),
                    op,
                    root,
                    tr,
                )?;
                if json_field(&replayed.body, "fingerprint")
                    != json_field(&resp.body, "fingerprint")
                {
                    return Err(format!("{app}: replay fingerprint differs from the run's"));
                }
                Ok(tasks)
            });
        tr.exit(root);
        result
    }
}

impl Workload for ServeWorkload {
    fn clients(&self) -> usize {
        self.clients.len()
    }

    fn op(&self, client: usize, i: u64, op: u64, tr: &mut Tracer) -> OpOutcome {
        let result = match self.mix {
            Mix::Warm => self.warm_op(client, i, op, tr),
            Mix::Replay => self.replay_op(client, i, op, tr),
        };
        match result {
            Ok(tasks) => OpOutcome { tasks, error: None },
            Err(e) => OpOutcome::failed(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_top_level_fields_and_the_embedded_manifest() {
        let body = "{\"status\":\"ok\",\"rounds\":12,\"committed\":340,\
                    \"round_log\":[{\"round\":0,\"committed\":5}],\"manifest\":{\"version\":1}}";
        assert_eq!(json_field(body, "status"), Some("ok"));
        assert_eq!(json_field(body, "committed"), Some("340"));
        assert_eq!(json_field(body, "rounds"), Some("12"));
        assert_eq!(json_field(body, "absent"), None);
        assert_eq!(embedded_manifest(body), Some("{\"version\":1}"));
        assert_eq!(json_field("{\"last\":7}", "last"), Some("7"));
    }
}
