//! Length-prefixed frame protocol for distributed lockstep replication.
//!
//! Deterministic execution makes replica cross-checking cheap: a replica's
//! entire observable schedule compresses to one 8-byte prefix hash per
//! round, so the wire protocol is tiny — a versioned handshake, a job
//! assignment carrying the run's identity
//! ([`RunManifest`](galois_core::RunManifest) JSON: input key plus
//! `ExecConfig`), then a stream of `(round, hash)` pairs and a final
//! result frame. Frames are a `u32` little-endian length, then 1 kind
//! byte, then the payload, over a plain `std::net::TcpStream`.
//!
//! Reading reuses `serve::http`'s timeout discipline: a short
//! [`READ_TIMEOUT`](crate::http::READ_TIMEOUT) is installed on the socket
//! and [`read_frame`] loops on timeout ticks, accumulating *idle* time
//! against the caller's deadline budget — so a dead peer is detected in
//! bounded time while a merely slow one can keep a connection alive by
//! making progress.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Wire protocol version. A coordinator rejects (with [`Frame::Reject`])
/// any replica whose `HELLO` carries a different version.
pub const WIRE_VERSION: u32 = 1;

/// Magic bytes opening every `HELLO`: "GaLois locKStep".
pub const WIRE_MAGIC: [u8; 4] = *b"GLKS";

/// Hard cap on one frame's payload — a round hash is 16 bytes and a job is
/// one manifest, so anything near this bound is a corrupt peer.
pub const MAX_FRAME: usize = 1 << 20;

const KIND_HELLO: u8 = 0x01;
const KIND_JOB: u8 = 0x02;
const KIND_REJECT: u8 = 0x03;
const KIND_ROUND: u8 = 0x10;
const KIND_DONE: u8 = 0x11;
const KIND_FAULT: u8 = 0x12;
const KIND_EVICT: u8 = 0x20;
const KIND_ACK: u8 = 0x21;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Replica → coordinator, first frame: magic + protocol version.
    Hello {
        /// The replica's [`WIRE_VERSION`].
        version: u32,
    },
    /// Coordinator → replica: the job assignment — replica id, thread
    /// budget to run at (0 = use the manifest's recorded budget), and the
    /// reference [`RunManifest`](galois_core::RunManifest) JSON (input key,
    /// `ExecConfig` and expected chain).
    Job {
        /// Id the coordinator assigned this replica.
        replica: u32,
        /// Thread budget override (0 = manifest's recorded budget).
        threads: u32,
        /// The reference manifest, in its canonical JSON form.
        manifest: String,
    },
    /// Coordinator → replica: handshake refused (version skew, full house).
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Replica → coordinator, once per barrier: the round's chain prefix
    /// hash.
    Round {
        /// Chain sequence index.
        seq: u64,
        /// Prefix hash after this round.
        hash: u64,
    },
    /// Replica → coordinator: the run finished cleanly.
    Done {
        /// Total rounds in the replica's chain.
        rounds: u64,
        /// Application output hash.
        output_hash: u64,
        /// Final run fingerprint.
        fingerprint: u64,
    },
    /// Replica → coordinator: the run ended in a structured fault (or the
    /// replica could not execute the job at all).
    Fault {
        /// The fault's process exit code.
        exit_code: u32,
        /// Canonical fault message.
        message: String,
    },
    /// Coordinator → replica: you diverged and are out of the vote.
    Evict {
        /// First divergent round.
        round: u64,
        /// Why, for the replica's log.
        reason: String,
    },
    /// Coordinator → replica: run settled, your result was accepted.
    Ack,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum WireError {
    /// The socket failed or the peer hung up mid-frame.
    Io(std::io::Error),
    /// The peer went silent longer than the caller's idle budget.
    Timeout,
    /// The peer closed cleanly between frames.
    Closed,
    /// The bytes are not a well-formed frame.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Timeout => write!(f, "peer timed out"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let span = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or_else(|| WireError::Malformed("frame payload truncated".into()))?;
        self.pos += n;
        Ok(span)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("non-UTF-8 string in frame".into()))
    }

    fn end(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes in frame".into()))
        }
    }
}

impl Frame {
    /// Encodes the frame: `u32 LE length` (kind byte + payload), kind,
    /// payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        let kind = match self {
            Frame::Hello { version } => {
                payload.extend_from_slice(&WIRE_MAGIC);
                put_u32(&mut payload, *version);
                KIND_HELLO
            }
            Frame::Job {
                replica,
                threads,
                manifest,
            } => {
                put_u32(&mut payload, *replica);
                put_u32(&mut payload, *threads);
                put_str(&mut payload, manifest);
                KIND_JOB
            }
            Frame::Reject { reason } => {
                put_str(&mut payload, reason);
                KIND_REJECT
            }
            Frame::Round { seq, hash } => {
                put_u64(&mut payload, *seq);
                put_u64(&mut payload, *hash);
                KIND_ROUND
            }
            Frame::Done {
                rounds,
                output_hash,
                fingerprint,
            } => {
                put_u64(&mut payload, *rounds);
                put_u64(&mut payload, *output_hash);
                put_u64(&mut payload, *fingerprint);
                KIND_DONE
            }
            Frame::Fault { exit_code, message } => {
                put_u32(&mut payload, *exit_code);
                put_str(&mut payload, message);
                KIND_FAULT
            }
            Frame::Evict { round, reason } => {
                put_u64(&mut payload, *round);
                put_str(&mut payload, reason);
                KIND_EVICT
            }
            Frame::Ack => KIND_ACK,
        };
        let mut out = Vec::with_capacity(5 + payload.len());
        put_u32(&mut out, 1 + payload.len() as u32);
        out.push(kind);
        out.extend_from_slice(&payload);
        out
    }

    fn decode(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut c = Cursor {
            bytes: payload,
            pos: 0,
        };
        let frame = match kind {
            KIND_HELLO => {
                let magic = c.take(4)?;
                if magic != WIRE_MAGIC {
                    return Err(WireError::Malformed("bad hello magic".into()));
                }
                Frame::Hello { version: c.u32()? }
            }
            KIND_JOB => Frame::Job {
                replica: c.u32()?,
                threads: c.u32()?,
                manifest: c.string()?,
            },
            KIND_REJECT => Frame::Reject {
                reason: c.string()?,
            },
            KIND_ROUND => Frame::Round {
                seq: c.u64()?,
                hash: c.u64()?,
            },
            KIND_DONE => Frame::Done {
                rounds: c.u64()?,
                output_hash: c.u64()?,
                fingerprint: c.u64()?,
            },
            KIND_FAULT => Frame::Fault {
                exit_code: c.u32()?,
                message: c.string()?,
            },
            KIND_EVICT => Frame::Evict {
                round: c.u64()?,
                reason: c.string()?,
            },
            KIND_ACK => Frame::Ack,
            other => {
                return Err(WireError::Malformed(format!(
                    "unknown frame kind {other:#x}"
                )))
            }
        };
        c.end()?;
        Ok(frame)
    }
}

/// Writes one frame.
pub fn write_frame(stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    stream.write_all(&frame.encode())?;
    stream.flush()
}

/// Reads one frame, tolerating up to `idle_budget` of peer silence.
///
/// The stream must have a short read timeout installed (the
/// [`READ_TIMEOUT`](crate::http::READ_TIMEOUT) discipline): each timeout
/// tick charges elapsed silence against `idle_budget`; any received byte
/// resets the meter. Returns [`WireError::Closed`] only on a clean EOF
/// *between* frames — EOF mid-frame is an I/O error.
pub fn read_frame(stream: &mut TcpStream, idle_budget: Duration) -> Result<Frame, WireError> {
    let mut header = [0u8; 4];
    read_exact_idle(stream, &mut header, idle_budget, true)?;
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return Err(WireError::Malformed("zero-length frame".into()));
    }
    if len > MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "frame of {len} bytes exceeds cap"
        )));
    }
    let mut body = vec![0u8; len];
    read_exact_idle(stream, &mut body, idle_budget, false)?;
    Frame::decode(body[0], &body[1..])
}

/// `read_exact` under the timeout-tick discipline. `clean_eof_ok` treats
/// EOF before the first byte as [`WireError::Closed`] (frame boundary).
fn read_exact_idle(
    stream: &mut TcpStream,
    buf: &mut [u8],
    idle_budget: Duration,
    clean_eof_ok: bool,
) -> Result<(), WireError> {
    let mut filled = 0usize;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && clean_eof_ok {
                    Err(WireError::Closed)
                } else {
                    Err(WireError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    )))
                };
            }
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if last_progress.elapsed() > idle_budget {
                    return Err(WireError::Timeout);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let frames = [
            Frame::Hello {
                version: WIRE_VERSION,
            },
            Frame::Job {
                replica: 2,
                threads: 4,
                manifest: "{\"version\":1}".into(),
            },
            Frame::Reject {
                reason: "version skew".into(),
            },
            Frame::Round {
                seq: 17,
                hash: 0xdead_beef_cafe_f00d,
            },
            Frame::Done {
                rounds: 40,
                output_hash: 1,
                fingerprint: 2,
            },
            Frame::Fault {
                exit_code: 10,
                message: "operator panic".into(),
            },
            Frame::Evict {
                round: 9,
                reason: "minority chain".into(),
            },
            Frame::Ack,
        ];
        for frame in frames {
            let bytes = frame.encode();
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            assert_eq!(len, bytes.len() - 4);
            let back = Frame::decode(bytes[4], &bytes[5..]).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Unknown kind.
        assert!(matches!(
            Frame::decode(0x7f, &[]),
            Err(WireError::Malformed(_))
        ));
        // Truncated payload.
        assert!(matches!(
            Frame::decode(KIND_ROUND, &[1, 2, 3]),
            Err(WireError::Malformed(_))
        ));
        // Trailing bytes.
        let mut bytes = Frame::Ack.encode();
        bytes.push(0);
        assert!(matches!(
            Frame::decode(bytes[4], &bytes[5..]),
            Err(WireError::Malformed(_))
        ));
        // Bad magic.
        let mut hello = Vec::new();
        hello.extend_from_slice(b"NOPE");
        put_u32(&mut hello, WIRE_VERSION);
        assert!(matches!(
            Frame::decode(KIND_HELLO, &hello),
            Err(WireError::Malformed(_))
        ));
        // String length lying past the payload end.
        let mut fault = Vec::new();
        put_u32(&mut fault, 10);
        put_u32(&mut fault, 1000);
        fault.extend_from_slice(b"short");
        assert!(matches!(
            Frame::decode(KIND_FAULT, &fault),
            Err(WireError::Malformed(_))
        ));
    }
}
