//! A small blocking HTTP/1.1 client, used by the integration tests and
//! the load generator. Keep-alive with one transparent reconnect: if the
//! server closed an idle pooled connection, the request is retried once on
//! a fresh socket before the error surfaces.

use crate::http;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::time::Duration;

/// One received response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    /// The first header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection to one server.
pub struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            conn: None,
        }
    }

    pub fn get(&mut self, target: &str) -> Result<Response, String> {
        self.request("GET", target, "")
    }

    pub fn post(&mut self, target: &str, body: &str) -> Result<Response, String> {
        self.request("POST", target, body)
    }

    /// Sends one request, reconnecting once if a pooled connection turned
    /// out to be dead.
    pub fn request(&mut self, method: &str, target: &str, body: &str) -> Result<Response, String> {
        let had_conn = self.conn.is_some();
        match self.attempt(method, target, body) {
            Ok(resp) => Ok(resp),
            Err(e) if had_conn => {
                self.conn = None;
                self.attempt(method, target, body).map_err(|e2| {
                    format!("request failed on pooled ({e}) and fresh ({e2}) connections")
                })
            }
            Err(e) => Err(e),
        }
    }

    fn attempt(&mut self, method: &str, target: &str, body: &str) -> Result<Response, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            http::prepare(&stream, Duration::from_secs(120)).map_err(|e| e.to_string())?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().unwrap();
        let result = http::write_request(conn.get_mut(), method, target, &self.addr, body)
            .map_err(|e| e.to_string())
            .and_then(|()| read_response(conn));
        let reusable = result.as_ref().is_ok_and(|r| {
            !r.header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        });
        if !reusable {
            self.conn = None;
        }
        result
    }
}

fn read_response(conn: &mut BufReader<TcpStream>) -> Result<Response, String> {
    let mut status_line = String::new();
    conn.read_line(&mut status_line)
        .map_err(|e| format!("read status line: {e}"))?;
    if status_line.is_empty() {
        return Err("connection closed before response".into());
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        conn.read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header {line:?}"))?;
        if k.eq_ignore_ascii_case("content-length") {
            content_length = v.trim().parse().map_err(|_| "bad content-length")?;
        }
        headers.push((k.trim().to_string(), v.trim().to_string()));
    }
    let mut body = vec![0u8; content_length];
    conn.read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "non-UTF-8 response body")?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// One-shot GET against `addr` on a fresh connection.
pub fn get(addr: &str, target: &str) -> Result<Response, String> {
    Client::new(addr).get(target)
}

/// One-shot POST against `addr` on a fresh connection.
pub fn post(addr: &str, target: &str, body: &str) -> Result<Response, String> {
    Client::new(addr).post(target, body)
}
