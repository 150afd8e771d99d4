//! Graph serialization: DIMACS and binary CSR formats.
//!
//! The Lonestar/PBBS suites distribute inputs as files; downstream users of
//! this reproduction need the same. Two formats:
//!
//! - **DIMACS** (the max-flow community format): `c` comments, one
//!   `p max NODES EDGES` problem line, `n ID s|t` source/sink lines, and
//!   `a SRC DST CAP` arcs, all 1-indexed.
//! - **binary CSR** (`GCSR`, the [`crate::cache`] format): the raw offset
//!   and target arrays, little-endian, with a magic tag, a format version
//!   and a trailing FNV-1a checksum, so a cached input loads with two
//!   reads and corruption or truncation is always detected.

use crate::csr::{CsrGraph, NodeId};
use crate::flow::FlowNetwork;
use std::io::{BufRead, Read, Write};

/// Errors from graph parsing.
#[derive(Debug)]
pub enum ParseGraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content, with a line number and description.
    Malformed {
        /// 1-indexed line.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseGraphError::Io(e) => write!(f, "i/o error: {e}"),
            ParseGraphError::Malformed { line, reason } => {
                write!(f, "malformed graph at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseGraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseGraphError::Io(e) => Some(e),
            ParseGraphError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseGraphError {
    fn from(e: std::io::Error) -> Self {
        ParseGraphError::Io(e)
    }
}

fn malformed(line: usize, reason: impl Into<String>) -> ParseGraphError {
    ParseGraphError::Malformed {
        line,
        reason: reason.into(),
    }
}

/// Reads a DIMACS max-flow file into a [`FlowNetwork`].
///
/// # Errors
///
/// Returns [`ParseGraphError`] for I/O failures, missing problem/source/sink
/// lines, or out-of-range ids.
pub fn read_dimacs_flow<R: BufRead>(reader: R) -> Result<FlowNetwork, ParseGraphError> {
    let mut n: Option<usize> = None;
    let mut declared_arcs: Option<usize> = None;
    let mut source: Option<NodeId> = None;
    let mut sink: Option<NodeId> = None;
    let mut arcs: Vec<(NodeId, NodeId, i64)> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let mut it = line.split_whitespace();
        match it.next() {
            None | Some("c") => {}
            Some("p") => {
                let kind = it
                    .next()
                    .ok_or_else(|| malformed(idx + 1, "missing problem kind"))?;
                if kind != "max" {
                    return Err(malformed(idx + 1, format!("unsupported problem '{kind}'")));
                }
                let nodes: usize = it
                    .next()
                    .ok_or_else(|| malformed(idx + 1, "missing node count"))?
                    .parse()
                    .map_err(|e| malformed(idx + 1, format!("bad node count: {e}")))?;
                n = Some(nodes);
                // The arc count is optional in the wild but validated when
                // present: a truncated file (cache entry cut mid-write)
                // must not silently load as a smaller network.
                if let Some(count) = it.next() {
                    let count: usize = count
                        .parse()
                        .map_err(|e| malformed(idx + 1, format!("bad arc count: {e}")))?;
                    declared_arcs = Some(count);
                }
            }
            Some("n") => {
                let id: u32 = it
                    .next()
                    .ok_or_else(|| malformed(idx + 1, "missing node id"))?
                    .parse()
                    .map_err(|e| malformed(idx + 1, format!("bad node id: {e}")))?;
                if id == 0 {
                    return Err(malformed(idx + 1, "DIMACS ids are 1-indexed"));
                }
                match it.next() {
                    Some("s") => source = Some(id - 1),
                    Some("t") => sink = Some(id - 1),
                    other => {
                        return Err(malformed(idx + 1, format!("bad node role {other:?}")));
                    }
                }
            }
            Some("a") => {
                let parse = |tok: Option<&str>, what: &str| -> Result<i64, ParseGraphError> {
                    tok.ok_or_else(|| malformed(idx + 1, format!("missing {what}")))?
                        .parse()
                        .map_err(|e| malformed(idx + 1, format!("bad {what}: {e}")))
                };
                let s = parse(it.next(), "arc source")?;
                let t = parse(it.next(), "arc target")?;
                let cap = parse(it.next(), "arc capacity")?;
                if s < 1 || t < 1 {
                    return Err(malformed(idx + 1, "DIMACS ids are 1-indexed"));
                }
                arcs.push((s as NodeId - 1, t as NodeId - 1, cap));
            }
            Some(other) => {
                return Err(malformed(idx + 1, format!("unknown line kind '{other}'")));
            }
        }
    }
    let n = n.ok_or_else(|| malformed(0, "no problem line"))?;
    let source = source.ok_or_else(|| malformed(0, "no source line"))?;
    let sink = sink.ok_or_else(|| malformed(0, "no sink line"))?;
    if let Some(declared) = declared_arcs {
        if declared != arcs.len() {
            return Err(malformed(
                0,
                format!(
                    "problem line declares {declared} arcs, file has {}",
                    arcs.len()
                ),
            ));
        }
    }
    Ok(FlowNetwork::from_edges(n, &arcs, source, sink))
}

/// Writes `net` in DIMACS max-flow format: its arcs of nonzero capacity,
/// so not the generated reverse arcs.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_dimacs_flow<W: Write>(net: &FlowNetwork, mut writer: W) -> std::io::Result<()> {
    // Count real (nonzero-capacity) arcs: reverse residual arcs are an
    // implementation artifact.
    let mut arcs = Vec::new();
    for v in 0..net.num_nodes() as NodeId {
        for e in net.edge_range(v) {
            let cap = net.capacity_of(e);
            if cap > 0 {
                arcs.push((v, net.edge_target(e), cap));
            }
        }
    }
    writeln!(writer, "c generated by deterministic-galois")?;
    writeln!(writer, "p max {} {}", net.num_nodes(), arcs.len())?;
    writeln!(writer, "n {} s", net.source() + 1)?;
    writeln!(writer, "n {} t", net.sink() + 1)?;
    for (s, t, cap) in arcs {
        writeln!(writer, "a {} {} {cap}", s + 1, t + 1)?;
    }
    Ok(())
}

/// Magic tag opening every binary CSR file.
pub const CSR_MAGIC: [u8; 4] = *b"GCSR";
/// Current binary CSR format version. Bump on any layout change: the
/// reader rejects every other version, so stale caches regenerate instead
/// of decoding garbage.
pub const CSR_VERSION: u32 = 1;

/// Errors from binary CSR decoding.
#[derive(Debug)]
pub enum BinGraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`CSR_MAGIC`].
    BadMagic([u8; 4]),
    /// The file's version is not [`CSR_VERSION`].
    BadVersion(u32),
    /// The file ended before the declared arrays (or checksum) were read.
    Truncated,
    /// Structurally inconsistent or checksum-mismatched content.
    Corrupt(String),
}

impl std::fmt::Display for BinGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinGraphError::Io(e) => write!(f, "i/o error: {e}"),
            BinGraphError::BadMagic(m) => write!(f, "bad magic {m:02x?}, expected GCSR"),
            BinGraphError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported binary CSR version {v} (expected {CSR_VERSION})"
                )
            }
            BinGraphError::Truncated => write!(f, "truncated binary CSR file"),
            BinGraphError::Corrupt(why) => write!(f, "corrupt binary CSR file: {why}"),
        }
    }
}

impl std::error::Error for BinGraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BinGraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BinGraphError {
    fn from(e: std::io::Error) -> Self {
        // An unexpected EOF from read_exact is a truncation, not an I/O
        // fault: the corrupted-cache tests depend on the distinction.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            BinGraphError::Truncated
        } else {
            BinGraphError::Io(e)
        }
    }
}

/// Incremental FNV-1a over 8-byte little-endian words (the checksum the
/// cache format carries). Word-at-a-time instead of the classic per-byte
/// loop: the multiply chain is the serial bottleneck of a warm cache load,
/// and one step per word keeps a 1M-node load well under regeneration
/// cost. A partial trailing word is zero-padded at [`finish`](Self::finish).
/// The internal carry buffer makes the digest independent of how the byte
/// stream is sliced across `write` calls, so reader and writer need not
/// checksum identical segment boundaries.
struct Fnv64 {
    state: u64,
    pending: [u8; 8],
    pending_len: usize,
}

impl Fnv64 {
    fn new() -> Self {
        Fnv64 {
            state: 0xcbf2_9ce4_8422_2325,
            pending: [0u8; 8],
            pending_len: 0,
        }
    }

    #[inline]
    fn step(&mut self, word: u64) {
        self.state ^= word;
        self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write(&mut self, mut bytes: &[u8]) {
        if self.pending_len > 0 {
            let take = bytes.len().min(8 - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len == 8 {
                self.step(u64::from_le_bytes(self.pending));
                self.pending_len = 0;
            }
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.step(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let tail = chunks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            self.pending[self.pending_len..].fill(0);
            let word = u64::from_le_bytes(self.pending);
            self.step(word);
        }
        self.state
    }
}

/// Writes `graph` in binary CSR form: magic, version, node/edge counts,
/// the offset and target arrays (little-endian), and a trailing FNV-1a
/// checksum of everything after the magic.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csr_binary<W: Write>(graph: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    let mut sum = Fnv64::new();
    let mut emit = |writer: &mut W, bytes: &[u8]| -> std::io::Result<()> {
        sum.write(bytes);
        writer.write_all(bytes)
    };
    writer.write_all(&CSR_MAGIC)?;
    emit(&mut writer, &CSR_VERSION.to_le_bytes())?;
    emit(&mut writer, &(graph.num_nodes() as u64).to_le_bytes())?;
    emit(&mut writer, &(graph.num_edges() as u64).to_le_bytes())?;
    // Serialize each array into one buffer and emit it whole: a store is
    // two bulk writes, mirroring the two bulk reads of a load.
    let mut offset_bytes = Vec::with_capacity(graph.offsets().len() * 8);
    for &o in graph.offsets() {
        offset_bytes.extend_from_slice(&o.to_le_bytes());
    }
    emit(&mut writer, &offset_bytes)?;
    let mut target_bytes = Vec::with_capacity(graph.targets().len() * 4);
    for &t in graph.targets() {
        target_bytes.extend_from_slice(&t.to_le_bytes());
    }
    emit(&mut writer, &target_bytes)?;
    writer.write_all(&sum.finish().to_le_bytes())?;
    Ok(())
}

/// Reads a binary CSR file written by [`write_csr_binary`].
///
/// # Errors
///
/// [`BinGraphError`] on I/O failure, wrong magic or version, truncation,
/// checksum mismatch, or structurally inconsistent arrays.
pub fn read_csr_binary<R: Read>(mut reader: R) -> Result<CsrGraph, BinGraphError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != CSR_MAGIC {
        return Err(BinGraphError::BadMagic(magic));
    }
    let mut sum = Fnv64::new();
    let mut buf8 = [0u8; 8];
    let mut buf4 = [0u8; 4];

    reader.read_exact(&mut buf4)?;
    sum.write(&buf4);
    let version = u32::from_le_bytes(buf4);
    if version != CSR_VERSION {
        return Err(BinGraphError::BadVersion(version));
    }
    reader.read_exact(&mut buf8)?;
    sum.write(&buf8);
    let n = u64::from_le_bytes(buf8);
    reader.read_exact(&mut buf8)?;
    sum.write(&buf8);
    let m = u64::from_le_bytes(buf8);
    // NodeId is u32, so a sane header is bounded; a garbage count must not
    // drive a giant allocation before the checksum gets a chance to fail.
    if n > u32::MAX as u64 || m > 1 << 40 {
        return Err(BinGraphError::Corrupt(format!(
            "implausible sizes n={n} m={m}"
        )));
    }
    let (n, m) = (n as usize, m as usize);

    // Bulk-read both arrays: cache loads are the point of this format.
    // Sized by what the stream yields (`take` + `read_to_end`), not by an
    // upfront `vec![0; header_len]` — a corrupted length field must fail
    // as `Truncated` when the bytes run out, not abort in the allocator.
    fn read_array<R: Read>(reader: &mut R, len: usize) -> Result<Vec<u8>, BinGraphError> {
        let mut buf = Vec::new();
        let got = reader.take(len as u64).read_to_end(&mut buf)?;
        if got < len {
            return Err(BinGraphError::Truncated);
        }
        Ok(buf)
    }
    let offset_bytes = read_array(&mut reader, (n + 1) * 8)?;
    sum.write(&offset_bytes);
    let offsets: Vec<u64> = offset_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let target_bytes = read_array(&mut reader, m * 4)?;
    sum.write(&target_bytes);
    let targets: Vec<NodeId> = target_bytes
        .chunks_exact(4)
        .map(|c| NodeId::from_le_bytes(c.try_into().unwrap()))
        .collect();
    reader.read_exact(&mut buf8)?;
    if u64::from_le_bytes(buf8) != sum.finish() {
        return Err(BinGraphError::Corrupt("checksum mismatch".into()));
    }
    CsrGraph::from_parts(offsets, targets)
        .ok_or_else(|| BinGraphError::Corrupt("inconsistent CSR arrays".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimacs_roundtrip_preserves_max_flow() {
        let net = FlowNetwork::random(40, 3, 25, 9);
        let expect = net.edmonds_karp();
        let mut buf = Vec::new();
        write_dimacs_flow(&net, &mut buf).unwrap();
        let back = read_dimacs_flow(buf.as_slice()).unwrap();
        assert_eq!(back.num_nodes(), net.num_nodes());
        assert_eq!(back.edmonds_karp(), expect);
    }

    #[test]
    fn dimacs_parses_canonical_example() {
        let text = "c example\np max 4 5\nn 1 s\nn 4 t\n\
                    a 1 2 3\na 1 3 2\na 2 4 2\na 3 4 3\na 2 3 5\n";
        let net = read_dimacs_flow(text.as_bytes()).unwrap();
        assert_eq!(net.num_nodes(), 4);
        assert_eq!(net.source(), 0);
        assert_eq!(net.sink(), 3);
        assert_eq!(net.edmonds_karp(), 5);
    }

    #[test]
    fn dimacs_rejects_garbage() {
        assert!(
            read_dimacs_flow("p max 2 0\n".as_bytes()).is_err(),
            "no s/t"
        );
        assert!(read_dimacs_flow("q wat\n".as_bytes()).is_err());
        assert!(
            read_dimacs_flow("p max 2 1\nn 1 s\nn 2 t\na 0 1 5\n".as_bytes()).is_err(),
            "0-indexed arc"
        );
    }
}
