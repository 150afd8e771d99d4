//! Wire-level framing tests for `serve::http`, written against raw
//! `TcpStream`s on purpose: `serve::client` frames requests correctly, so
//! it can never produce the torn writes, lying Content-Lengths, and
//! pipelined byte streams a real network (or a hostile peer) will.

use galois_serve::{ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start_server() -> (ServerHandle, String) {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr().to_string();
    (server, addr)
}

/// Reads HTTP responses (head + Content-Length body) off a raw stream.
/// Responses to pipelined requests share TCP segments, so the reader keeps
/// its own carry of bytes read past each response boundary.
struct ResponseReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ResponseReader {
    fn new(stream: TcpStream) -> Self {
        ResponseReader {
            stream,
            buf: Vec::new(),
        }
    }

    /// One full response; `None` if the peer closed before a head arrived.
    fn read_response(&mut self) -> Option<(u16, String)> {
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read response head: {e}"),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).expect("UTF-8 head");
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no status in {head:?}"));
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                l.strip_prefix("content-length:")
                    .or(l.strip_prefix("Content-Length:"))
            })
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no content-length in {head:?}"));
        let mut rest = self.buf.split_off(head_end + 4);
        self.buf.clear();
        while rest.len() < content_length {
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("peer closed mid-body"),
                Ok(n) => rest.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read response body: {e}"),
            }
        }
        // Bytes past this body are the start of the next response.
        self.buf = rest.split_off(content_length);
        Some((status, String::from_utf8(rest).expect("UTF-8 body")))
    }
}

fn post_run(body: &str, content_length: usize) -> String {
    format!("POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {content_length}\r\n\r\n{body}")
}

/// A request head and body trickling in across five separate writes (with
/// real delays between them) is reassembled into one request.
#[test]
fn split_head_and_body_reassembles() {
    let (mut server, addr) = start_server();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let body = r#"{"app":"bfs","size":200}"#;
    let request = post_run(body, body.len());
    // Split mid-request-line, mid-header, mid-separator, and mid-body.
    let cuts = [6, 20, request.len() - body.len() - 2, request.len() - 10];
    let mut last = 0;
    for cut in cuts {
        stream.write_all(&request.as_bytes()[last..cut]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        last = cut;
    }
    stream.write_all(&request.as_bytes()[last..]).unwrap();
    let (status, body) = ResponseReader::new(stream)
        .read_response()
        .expect("response");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

/// Content-Length one short of the body: the server parses the truncated
/// JSON (a 400), and the stray final byte then corrupts the *next*
/// request on the connection — it must never be silently spliced into
/// either request.
#[test]
fn content_length_short_by_one_truncates_and_poisons_pipeline() {
    let (mut server, addr) = start_server();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let body = r#"{"app":"bfs","size":200}"#;
    stream
        .write_all(post_run(body, body.len() - 1).as_bytes())
        .unwrap();
    let mut reader = ResponseReader::new(stream.try_clone().unwrap());
    let (status, resp) = reader.read_response().expect("truncated-JSON response");
    assert_eq!(status, 400, "truncated body must not run: {resp}");

    // The orphaned `}` is now the first byte of the next "request": the
    // server sees method `}GET` — an error (405/400), never a served
    // healthz spliced together from two requests' bytes.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    if let Some((status, body)) = reader.read_response() {
        assert_ne!(
            status, 200,
            "stray byte must poison the request line: {body}"
        );
    } // the server may instead just drop the poisoned connection
    server.shutdown();
}

/// Content-Length one *past* the body, then a half-close: the server must
/// answer "closed mid-body", not hang and not process the short body.
#[test]
fn content_length_long_by_one_is_closed_mid_body() {
    let (mut server, addr) = start_server();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let body = r#"{"app":"bfs","size":200}"#;
    stream
        .write_all(post_run(body, body.len() + 1).as_bytes())
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let (status, resp) = ResponseReader::new(stream)
        .read_response()
        .expect("mid-body response");
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("mid-body"), "{resp}");
    server.shutdown();
}

/// Two GETs in one TCP segment: both must be answered, in order, on the
/// same connection (the carry buffer keeps the second request's bytes).
#[test]
fn pipelined_gets_are_both_answered() {
    let (mut server, addr) = start_server();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let get = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    stream.write_all(format!("{get}{get}").as_bytes()).unwrap();
    let mut reader = ResponseReader::new(stream);
    for i in 0..2 {
        let (status, body) = reader.read_response().unwrap_or_else(|| {
            panic!("pipelined response {i} missing (second request's bytes dropped?)")
        });
        assert_eq!(status, 200, "response {i}: {body}");
    }
    server.shutdown();
}

/// Two POST /run requests in one write: both bodies must be framed off the
/// shared byte stream and both runs answered — and determinism makes the
/// two answers identical.
#[test]
fn pipelined_runs_are_both_answered_identically() {
    let (mut server, addr) = start_server();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let body = r#"{"app":"bfs","size":200}"#;
    let request = post_run(body, body.len());
    stream
        .write_all(format!("{request}{request}").as_bytes())
        .unwrap();
    let mut reader = ResponseReader::new(stream);
    let first = reader.read_response().expect("first pipelined run");
    let second = reader.read_response().expect("second pipelined run");
    assert_eq!(first.0, 200, "{}", first.1);
    assert_eq!(first, second, "same deterministic run, same bytes");
    server.shutdown();
}

/// As many silent keep-alive connections as workers (2), accepted before a
/// `GET /healthz`: each idle connection gives its worker back on its next
/// read tick once another connection waits, so the health check is
/// answered while the silent sockets stay open — and they are still
/// served afterwards.
#[test]
fn idle_connections_do_not_pin_the_workers() {
    let (mut server, addr) = start_server();
    let idle: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    let get = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(get.as_bytes()).unwrap();
    let (status, body) = ResponseReader::new(stream)
        .read_response()
        .expect("health check answered");
    assert_eq!(status, 200, "{body}");
    for (i, mut stream) in idle.into_iter().enumerate() {
        stream.write_all(get.as_bytes()).unwrap();
        let (status, body) = ResponseReader::new(stream)
            .read_response()
            .unwrap_or_else(|| panic!("idle connection {i} was dropped"));
        assert_eq!(status, 200, "idle connection {i}: {body}");
    }
    server.shutdown();
}
