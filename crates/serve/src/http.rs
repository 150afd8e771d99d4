//! Hand-rolled HTTP/1.1 over `std::net::TcpStream`.
//!
//! The tree is registry-free (no tokio/hyper), and the service's needs are
//! narrow: small JSON requests, keep-alive, `Content-Length` bodies. This
//! module implements exactly that — a blocking request reader whose short
//! read timeouts let an idle connection give its worker back (to server
//! shutdown or to a waiting connection), and a response writer with
//! explicit framing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read timeout installed per connection: short enough that an idle
/// keep-alive connection notices promptly that its worker is wanted.
pub const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Sets up a stream this crate accepted or connected; every one passes
/// through here. It installs the read timeout the reader loops tick on, and
/// turns Nagle off: each exchange on these sockets is a small message the
/// peer is waiting for, and Nagle would hold it until the peer's delayed
/// ACK (~40 ms per direction).
pub(crate) fn prepare(stream: &TcpStream, read_timeout: Duration) -> std::io::Result<()> {
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_nodelay(true)
}

/// How long a *partial* request (first byte seen, terminator not yet) may
/// dribble before the connection is dropped.
const PARTIAL_DEADLINE: Duration = Duration::from_secs(10);

/// Hard cap on the request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Raw request target, e.g. `/replay?threads=4`.
    pub target: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// From the request's first byte until it was parsed.
    pub read: Duration,
}

impl Request {
    /// The target's path component (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The value of query parameter `name`, if present.
    pub fn query(&self, name: &str) -> Option<&str> {
        let query = self.target.split_once('?')?.1;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// The first header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not UTF-8".to_string())
    }
}

/// What one read attempt produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed — hang up without error.
    Closed,
    /// No byte of a next request has arrived, and `yield_idle` asked the
    /// connection to give its worker back. The connection holds no
    /// unread bytes, so it may be served again later from a fresh buffer.
    Idle,
}

/// Reads one request from `stream`. An *idle* connection (no bytes of the
/// next request yet) returns [`ReadOutcome::Idle`] on the first read
/// timeout tick at which `yield_idle()` is true, while a request already in
/// flight is read to completion so it can be answered. The caller must have
/// passed the stream through `prepare` with `READ_TIMEOUT`.
///
/// `carry` is the connection's pipeline buffer: bytes read past the end of
/// this request's body (the start of a pipelined next request) are left in
/// it, and it is consumed ahead of the socket on the next call. Pass the
/// same (initially empty) buffer for the life of the connection.
pub fn read_request(
    stream: &mut TcpStream,
    yield_idle: impl Fn() -> bool,
    max_body: usize,
    carry: &mut Vec<u8>,
) -> std::io::Result<ReadOutcome> {
    let mut buf: Vec<u8> = std::mem::take(carry);
    let mut chunk = [0u8; 4096];
    let mut first_byte_at: Option<Instant> = if buf.is_empty() {
        None
    } else {
        // Pipelined bytes already in hand count as a request in flight.
        Some(Instant::now())
    };

    // Accumulate until the blank line ending the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(err_data("request head too large"));
        }
        if let Some(t0) = first_byte_at {
            if t0.elapsed() > PARTIAL_DEADLINE {
                return Err(err_data("request timed out"));
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(ReadOutcome::Closed)
                } else {
                    Err(err_data("connection closed mid-request"))
                };
            }
            Ok(n) => {
                first_byte_at.get_or_insert_with(Instant::now);
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if buf.is_empty() && yield_idle() {
                    return Ok(ReadOutcome::Idle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| err_data("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| err_data("empty request"))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => {
            (m.to_string(), t.to_string(), v.to_string())
        }
        _ => return Err(err_data("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(err_data("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| err_data("malformed header"))?;
        headers.push((k.trim().to_string(), v.trim().to_string()));
    }

    let content_length: usize = match headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
    {
        Some((_, v)) => v.parse().map_err(|_| err_data("bad content-length"))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(err_data("request body too large"));
    }

    let body_start = head_end + 4;
    let mut body = buf.split_off(body_start.min(buf.len()));
    let deadline = Instant::now() + PARTIAL_DEADLINE;
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(err_data("connection closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() > deadline {
                    return Err(err_data("request body timed out"));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // Bytes past this body belong to the *next* pipelined request: keep
    // them for the following read_request call instead of dropping them.
    *carry = body.split_off(content_length);

    Ok(ReadOutcome::Request(Request {
        method,
        target,
        headers,
        body,
        read: first_byte_at.map_or(Duration::ZERO, |t0| t0.elapsed()),
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn err_data(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one `application/json` response with explicit framing.
pub fn write_response(
    out: &mut impl Write,
    status: u16,
    extra_headers: &[(String, String)],
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    write_message(out, &head, body)
}

/// Writes one request with `Content-Length` framing.
pub(crate) fn write_request(
    out: &mut impl Write,
    method: &str,
    target: &str,
    host: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    write_message(out, &head, body)
}

/// Sends `head` and `body` as one buffer in one write: a head written apart
/// from its body leaves the body behind Nagle's wait for the peer's ACK.
/// The body is copied once, into a buffer sized for both.
fn write_message(out: &mut impl Write, head: &str, body: &str) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(head.len() + body.len());
    message.extend_from_slice(head.as_bytes());
    message.extend_from_slice(body.as_bytes());
    out.write_all(&message)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn prepare_disables_nagle_and_sets_the_read_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        for (stream, timeout) in [(&client, Duration::from_secs(120)), (&server, READ_TIMEOUT)] {
            assert!(!stream.nodelay().unwrap());
            prepare(stream, timeout).unwrap();
            assert!(stream.nodelay().unwrap());
            assert_eq!(stream.read_timeout().unwrap(), Some(timeout));
        }
    }

    /// A writer that keeps each `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_with_unchanged_bytes() {
        let mut out = Writes::default();
        let headers = [("X-Galois-Cache".to_string(), "warm".to_string())];
        write_response(&mut out, 200, &headers, "{\"status\":\"ok\"}", true).unwrap();
        write_response(&mut out, 400, &[], "{}", false).unwrap();
        assert_eq!(
            out.0,
            [
                &b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\
                   Connection: keep-alive\r\nX-Galois-Cache: warm\r\n\r\n{\"status\":\"ok\"}"[..],
                b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
                   Connection: close\r\n\r\n{}",
            ]
        );
    }

    #[test]
    fn a_request_is_one_write_with_unchanged_bytes() {
        let mut out = Writes::default();
        write_request(
            &mut out,
            "POST",
            "/run",
            "127.0.0.1:80",
            "{\"app\":\"bfs\"}",
        )
        .unwrap();
        write_request(&mut out, "GET", "/healthz", "127.0.0.1:80", "").unwrap();
        assert_eq!(
            out.0,
            [
                &b"POST /run HTTP/1.1\r\nHost: 127.0.0.1:80\r\nContent-Length: 13\r\n\r\n\
                   {\"app\":\"bfs\"}"[..],
                b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:80\r\nContent-Length: 0\r\n\r\n",
            ]
        );
    }
}
