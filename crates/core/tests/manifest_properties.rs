//! Round-trip fuzz for the two on-disk formats: [`RunManifest`] and
//! [`LockstepReport`]. For any drawn value — strings included, whatever
//! bytes they hold — `parse(serialize(x)) == x`; and for any *single-byte*
//! corruption or truncation of the serialized form, parsing is rejected —
//! the checksum envelope (or the strict field cursor) catches every flip,
//! so a torn or tampered file can never replay as a different run. The
//! golden fixtures at the bottom pin the bytes themselves: documents
//! written by the build before the one-codec change must load and
//! re-serialize identically.

use galois_core::manifest::{
    ExecConfig, LockstepEvent, LockstepEventKind, LockstepOutcome, LockstepReport, ScheduleKind,
    LOCKSTEP_REPORT_VERSION, MANIFEST_VERSION,
};
use galois_core::{RunManifest, WorklistPolicy};
use proptest::prelude::*;

const APPS: [&str; 6] = ["bfs", "mis", "mm", "dt", "dmr", "pfp"];
const KINDS: [LockstepEventKind; 6] = [
    LockstepEventKind::Divergence,
    LockstepEventKind::Eviction,
    LockstepEventKind::Death,
    LockstepEventKind::Timeout,
    LockstepEventKind::Fault,
    LockstepEventKind::Refusal,
];
const OUTCOMES: [LockstepOutcome; 3] = [
    LockstepOutcome::Agreed,
    LockstepOutcome::Diverged,
    LockstepOutcome::NoQuorum,
];

/// An arbitrary string: quotes, backslashes, control bytes, non-ASCII and
/// the envelope's own marker text — everything a writer without `escape`
/// would have corrupted the document with.
fn any_string(payload: u64) -> String {
    const PARTS: [&str; 16] = [
        "a",
        "Z",
        "9",
        " ",
        "-",
        "\"",
        "\\",
        "\n",
        "\t",
        "\u{0}",
        "\u{1f}",
        "é",
        "✓",
        "\u{10348}",
        ",\"checksum\":\"",
        "\"}",
    ];
    let mut s = String::new();
    let mut p = payload;
    for _ in 0..(payload % 24) {
        s.push_str(PARTS[(p % 16) as usize]);
        p = p.rotate_right(5).wrapping_add(7);
    }
    s
}

fn drawn_manifest(seed: u64, hashes: Vec<u64>) -> RunManifest {
    RunManifest {
        version: MANIFEST_VERSION,
        app: format!("{}{}", APPS[(seed % 6) as usize], any_string(seed >> 7)),
        input_key: format!("uniform-n{}-{}", 100 + seed % 5000, any_string(seed >> 11)),
        input_seed: seed % 97,
        size: if seed.is_multiple_of(3) {
            0
        } else {
            100 + seed % 5000
        },
        exec: ExecConfig {
            threads: 1 + (seed % 16) as usize,
            schedule: match seed % 3 {
                0 => ScheduleKind::Serial,
                1 => ScheduleKind::Speculative,
                _ => ScheduleKind::Deterministic,
            },
            continuation: seed.is_multiple_of(2),
            locality_spread: 1 + (seed % 32) as usize,
            worklist: if seed.is_multiple_of(2) {
                WorklistPolicy::Lifo
            } else {
                WorklistPolicy::Fifo
            },
            chaos_seed: (seed.is_multiple_of(5)).then_some(seed),
            chaos_panics: seed.is_multiple_of(7),
            max_stalled_rounds: 1 + seed % 1000,
        },
        final_fingerprint: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        round_hashes: hashes,
    }
}

fn drawn_report(seed: u64, events: &[(u64, u64)]) -> LockstepReport {
    let replicas = 1 + seed % 7;
    LockstepReport {
        version: LOCKSTEP_REPORT_VERSION,
        app: format!("{}{}", APPS[(seed % 6) as usize], any_string(seed >> 13)),
        input_key: format!("key-{}", any_string(seed >> 17)),
        replicas,
        window: 1 + seed % 128,
        rounds: seed % 10_000,
        outcome: OUTCOMES[(seed % 3) as usize],
        survivors: (0..replicas).filter(|r| (seed >> r) & 1 == 0).collect(),
        max_buffered: seed % 128,
        output_hash: seed.rotate_left(17),
        final_fingerprint: seed.rotate_left(33),
        events: events
            .iter()
            .map(|&(a, b)| LockstepEvent {
                round: a % 10_000,
                replica: (a % 3 != 0).then_some(a % 7),
                kind: KINDS[(b % 6) as usize],
                expected: a.wrapping_mul(b),
                actual: b.rotate_left(9),
                detail: any_string(a ^ b),
            })
            .collect(),
    }
}

/// Asserts every single-byte flip of `text` (that is still UTF-8) and every
/// truncation of it fails to parse. The trailing newline is exempt: the
/// loader trims trailing whitespace, so it isn't part of the *document*.
fn assert_corruptions_rejected<T, E: std::fmt::Debug>(
    text: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) {
    let document = text.strip_suffix('\n').unwrap_or(text);
    let bytes = document.as_bytes();
    for at in 0..bytes.len() {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 0x01;
        if let Ok(corrupt) = String::from_utf8(flipped) {
            assert!(
                parse(&corrupt).is_err(),
                "flip at byte {at} ({:?} -> {:?}) was accepted",
                bytes[at] as char,
                (bytes[at] ^ 0x01) as char,
            );
        }
        if document.is_char_boundary(at) {
            assert!(
                parse(&document[..at]).is_err(),
                "truncation to {at} bytes was accepted"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RunManifest: parse(serialize(x)) == x for drawn manifests.
    fn run_manifest_round_trips(
        seed in 0u64..u64::MAX,
        hashes in proptest::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        let manifest = drawn_manifest(seed, hashes);
        let text = manifest.to_json();
        prop_assert_eq!(RunManifest::from_json(&text), Ok(manifest));
    }

    /// RunManifest: every single-byte flip and every truncation of the
    /// serialized form is rejected (checksum envelope or strict cursor,
    /// never a silent reinterpret).
    fn run_manifest_rejects_every_corruption(
        seed in 0u64..u64::MAX,
        hashes in proptest::collection::vec(0u64..u64::MAX, 0..6),
    ) {
        let text = drawn_manifest(seed, hashes).to_json();
        assert_corruptions_rejected(&text, RunManifest::from_json);
    }

    /// LockstepReport: parse(serialize(x)) == x, including the event log.
    fn lockstep_report_round_trips(
        seed in 0u64..u64::MAX,
        events in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..10),
    ) {
        let report = drawn_report(seed, &events);
        let text = report.to_json();
        prop_assert_eq!(LockstepReport::from_json(&text), Ok(report));
    }

    /// LockstepReport: every single-byte flip and truncation is rejected.
    fn lockstep_report_rejects_every_corruption(
        seed in 0u64..u64::MAX,
        events in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..3),
    ) {
        let text = drawn_report(seed, &events).to_json();
        assert_corruptions_rejected(&text, LockstepReport::from_json);
    }
}

// Backward compatibility: documents written by the parent build (commit
// f1ef5e0, before the one-codec change) with `galois record bfs --size 60
// --threads 2`, `galois record mis --size 40 --chaos-seed 7 --threads 1`
// and `galois lockstep <the bfs recording> --replicas 3 --spawn --perturb
// 1:16 --report`. Each must load and re-serialize to the identical bytes.

const GOLDEN_MANIFEST: &str = concat!(
    r#"{"version":1,"app":"bfs","input_key":"uniform-n60-d5-s42","input_seed":42,"size":60,"#,
    r#""threads":2,"schedule":"deterministic","continuation":true,"locality_spread":1,"#,
    r#""worklist":"fifo","chaos_seed":null,"chaos_panics":false,"max_stalled_rounds":4096,"#,
    r#""round_hashes":["beb8390376059235","b3ac501c7bb9bc44","84352a42bfde80e8","#,
    r#""3cbfa1ad9fa32ffd","b96578383f89f189","867bb8a7479ffb3c","1fced9e478e6a1ac","#,
    r#""7443994f33b23019","2c028e695e28981f","b8b6143f1454449a","e2be835f74e11bdc","#,
    r#""fc27715ef3aa4943","426b7979d9ba047f","d8cca26a226544e2","5d47df551edc7f97","#,
    r#""088e4ef23dc3b7d0","f1626cee1e2e310c","4dd9f94fd8a43293","acbb0763413e448f","#,
    r#""19e777a52df477b2","5b3fbc8492fc0176","e74d3a98ecd2c9e3","a6743cf0a94f8ae5","#,
    r#""9c0cc6a7919ef11c","9242b1f782a3bd2a","ca862d190d917523"],"#,
    r#""final_fingerprint":"816943654900fbb8","checksum":"b9daf78556c16bed"}"#,
    "\n"
);

const GOLDEN_MANIFEST_CHAOS: &str = concat!(
    r#"{"version":1,"app":"mis","input_key":"uniform-und-n40-d4-s42","input_seed":42,"#,
    r#""size":40,"threads":1,"schedule":"deterministic","continuation":true,"#,
    r#""locality_spread":1,"worklist":"lifo","chaos_seed":7,"chaos_panics":false,"#,
    r#""max_stalled_rounds":4096,"round_hashes":["b5c494328331aceb","e008544b8f85f684","#,
    r#""69f208c336426aa8","c7e72c0bc939caa5","04f7b1922504eaef","dde6b38342191e66","#,
    r#""8b3f071d52d3184e","acc23eb5bc012f87","8795ebd15c327501","93684d4e31bf05e6","#,
    r#""1167b6bb19dcfc42","770f8e7be6f469a5","ab4c33c9733bf305","75895a15c08343e6","#,
    r#""83640e804b0b1aa4","423a10ca030940c7","56e837a11d248159","f27caf8ab1d73a26","#,
    r#""e1247afd29030b9a","b133c37c52fdaac7","29b73be00072c503","9e316c12f2a1a124","#,
    r#""c4f3211c2a52c182","161b3b65093b7743","c001ecbb387b7fab","9785a4a55e57da6e","#,
    r#""bd5d2a461fcdb484","d1fd9b733b2c120d","f813cf9a0db93d81","b6d842c4fdc781c8","#,
    r#""cfd374c0ca0d54e4","e74439c2b9ae95ab"],"final_fingerprint":"a754b3637b4ec502","#,
    r#""checksum":"75ab7c6241e26cf9"}"#,
    "\n"
);

const GOLDEN_REPORT: &str = concat!(
    r#"{"version":1,"app":"bfs","input_key":"uniform-n60-d5-s42","replicas":3,"window":64,"#,
    r#""rounds":26,"outcome":"diverged","survivors":[0,2],"max_buffered":25,"#,
    r#""output_hash":"684ffdef9a9c0f83","final_fingerprint":"816943654900fbb8","#,
    r#""events":[{"round":3,"replica":1,"kind":"divergence","expected":"3cbfa1ad9fa32ffd","#,
    r#""actual":"4ab1e100ad5bf61f","#,
    r#""detail":"replica 1 first diverged from the reference chain at round 3"},{"round":3,"#,
    r#""replica":1,"kind":"eviction","expected":"0000000000000000","#,
    r#""actual":"0000000000000000","#,
    r#""detail":"replica 1 evicted; continuing with the survivors"}],"#,
    r#""checksum":"5aa008e2985b2d5b"}"#,
    "\n"
);

#[test]
fn golden_manifests_load_and_reserialize_identically() {
    let plain = RunManifest::from_json(GOLDEN_MANIFEST).unwrap();
    assert_eq!((plain.app.as_str(), plain.exec.chaos_seed), ("bfs", None));
    assert_eq!(plain.round_hashes.len(), 26);
    assert_eq!(plain.to_json(), GOLDEN_MANIFEST);

    let chaos = RunManifest::from_json(GOLDEN_MANIFEST_CHAOS).unwrap();
    assert_eq!(
        (chaos.app.as_str(), chaos.exec.chaos_seed),
        ("mis", Some(7))
    );
    assert_eq!(chaos.to_json(), GOLDEN_MANIFEST_CHAOS);
}

#[test]
fn golden_report_loads_and_reserializes_identically() {
    let report = LockstepReport::from_json(GOLDEN_REPORT).unwrap();
    assert_eq!(report.outcome, LockstepOutcome::Diverged);
    assert_eq!(report.events.len(), 2);
    assert_eq!(report.events[0].kind, LockstepEventKind::Divergence);
    assert_eq!(report.events[0].actual, 0x4ab1_e100_ad5b_f61f);
    assert_eq!(report.to_json(), GOLDEN_REPORT);
}
