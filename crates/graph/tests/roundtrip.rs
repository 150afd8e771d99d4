//! Round-trip and rejection tests for the graph I/O formats.
//!
//! The on-disk cache trusts `read_csr_binary` to be the *only* gate
//! between a cache file and a benchmark input, so the binary format is
//! tested the way an adversarial filesystem would exercise it: bit flips
//! in every region, truncation at every boundary, wrong magic, wrong
//! version. The DIMACS text format is round-tripped twice — read → write →
//! read — to pin down that writing is a faithful inverse, not merely that
//! one pass happens to parse.

use galois_graph::gen;
use galois_graph::io::{
    read_csr_binary, read_dimacs_flow, write_csr_binary, write_dimacs_flow, BinGraphError,
    CSR_MAGIC, CSR_VERSION,
};
use galois_graph::{CsrGraph, FlowNetwork};

fn encode(g: &CsrGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_csr_binary(g, &mut buf).unwrap();
    buf
}

#[test]
fn binary_roundtrip_is_byte_stable() {
    for (n, d, seed) in [(1usize, 0usize, 0u64), (64, 3, 5), (500, 5, 99)] {
        let g = gen::uniform_random(n, d, seed);
        let bytes = encode(&g);
        let back = read_csr_binary(bytes.as_slice()).unwrap();
        assert_eq!(g, back);
        // Re-encoding the decoded graph reproduces the same bytes: the
        // format has one canonical encoding per graph.
        assert_eq!(bytes, encode(&back));
    }
}

#[test]
fn binary_roundtrip_of_empty_graph() {
    let g = CsrGraph::from_edges(0, &[]);
    let back = read_csr_binary(encode(&g).as_slice()).unwrap();
    assert_eq!(g, back);
    assert_eq!(back.num_nodes(), 0);
    assert_eq!(back.num_edges(), 0);
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = encode(&gen::uniform_random(16, 2, 1));
    bytes[0..4].copy_from_slice(b"NOPE");
    match read_csr_binary(bytes.as_slice()) {
        Err(BinGraphError::BadMagic(m)) => assert_eq!(&m, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn wrong_version_is_rejected() {
    let mut bytes = encode(&gen::uniform_random(16, 2, 1));
    bytes[4..8].copy_from_slice(&(CSR_VERSION + 1).to_le_bytes());
    match read_csr_binary(bytes.as_slice()) {
        Err(BinGraphError::BadVersion(v)) => assert_eq!(v, CSR_VERSION + 1),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn truncation_at_every_boundary_is_rejected() {
    let bytes = encode(&gen::uniform_random(16, 2, 1));
    // Cutting inside the magic, the header, either array, or the trailing
    // checksum must all fail — never decode a graph from a short file.
    for cut in [0, 2, 4, 6, 11, 19, 20, bytes.len() / 2, bytes.len() - 1] {
        let short = &bytes[..cut];
        match read_csr_binary(short) {
            Err(BinGraphError::Truncated) => {}
            Err(BinGraphError::BadMagic(_)) if cut < 4 => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    // Exhaustive bit-rot sweep: flipping any one byte anywhere in the file
    // must surface as *some* decode error (checksum mismatch at minimum),
    // never as a silently different graph.
    let g = gen::uniform_random(24, 2, 7);
    let bytes = encode(&g);
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x41;
        match read_csr_binary(bad.as_slice()) {
            Err(_) => {}
            Ok(decoded) => panic!(
                "flip at byte {i}/{} decoded silently (graphs equal: {})",
                bytes.len(),
                decoded == g
            ),
        }
    }
}

#[test]
fn implausible_header_sizes_fail_before_allocating() {
    // A garbage node count must be rejected up front, not passed to
    // `Vec::with_capacity` (the checksum would catch it *after* the OOM).
    let mut bytes = encode(&gen::uniform_random(8, 1, 3));
    bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    match read_csr_binary(bytes.as_slice()) {
        Err(BinGraphError::Corrupt(why)) => assert!(why.contains("implausible")),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_harmless_but_reader_stops_at_checksum() {
    // The cache reads files it wrote itself; appended bytes (e.g. a torn
    // concurrent write into a pre-existing file) must not corrupt decode.
    let g = gen::uniform_random(16, 2, 1);
    let mut bytes = encode(&g);
    bytes.extend_from_slice(b"junk after the checksum");
    let back = read_csr_binary(bytes.as_slice()).unwrap();
    assert_eq!(g, back);
}

#[test]
fn magic_and_version_constants_are_pinned() {
    // The format constants are an on-disk contract; changing them silently
    // would orphan every existing cache file.
    assert_eq!(&CSR_MAGIC, b"GCSR");
    assert_eq!(CSR_VERSION, 1);
    let bytes = encode(&CsrGraph::from_edges(0, &[]));
    assert_eq!(&bytes[0..4], b"GCSR");
}

#[test]
fn dimacs_double_roundtrip_preserves_structure_and_flow() {
    let net = FlowNetwork::random(64, 3, 50, 21);
    let mut first = Vec::new();
    write_dimacs_flow(&net, &mut first).unwrap();
    let once = read_dimacs_flow(first.as_slice()).unwrap();
    let mut second = Vec::new();
    write_dimacs_flow(&once, &mut second).unwrap();
    assert_eq!(first, second, "DIMACS writer is not canonical");
    assert_eq!(once.num_nodes(), net.num_nodes());
    assert_eq!(once.num_edges(), net.num_edges());
    assert_eq!(once.edmonds_karp(), net.edmonds_karp());
}

#[test]
fn dimacs_rejects_truncated_input() {
    let net = FlowNetwork::random(32, 3, 30, 2);
    let mut buf = Vec::new();
    write_dimacs_flow(&net, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    // Drop the last arc line: the arc count no longer matches the header.
    let cut = text.trim_end().rfind('\n').unwrap();
    assert!(
        read_dimacs_flow(&text.as_bytes()[..cut]).is_err(),
        "truncated DIMACS (missing arcs) must not parse"
    );
}
