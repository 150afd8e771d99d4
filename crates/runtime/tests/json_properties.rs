//! Property tests for `galois_runtime::json`, the workspace's one JSON
//! codec: drawn value trees round-trip through the parser, and *no*
//! malformed input — truncations, mutations, bad escapes, runaway nesting,
//! oversized numbers, duplicate keys — ever gets anything but a structured
//! `Err`. The parser guards a network-facing endpoint; panicking (or
//! overflowing the stack) on attacker-shaped bytes would take a worker
//! with it.

use galois_runtime::json::{escape, parse, Value};
use proptest::prelude::*;

/// Renders `v` as JSON text with `pad` around every structural token
/// (`""` gives the canonical form the workspace's writers emit).
fn render(v: &Value, pad: &str) -> String {
    let join = |parts: Vec<String>| parts.join(&format!("{pad},{pad}"));
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::UInt(n) => n.to_string(),
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::Array(items) => {
            let items = items.iter().map(|v| render(v, pad)).collect();
            format!("[{pad}{}{pad}]", join(items))
        }
        Value::Object(pairs) => {
            let fields = pairs
                .iter()
                .map(|(k, v)| format!("\"{}\"{pad}:{pad}{}", escape(k), render(v, pad)))
                .collect();
            format!("{{{pad}{}{pad}}}", join(fields))
        }
    }
}

/// A drawn string exercising the escape table: quotes, backslashes,
/// control bytes, multi-byte UTF-8, and the structural bytes themselves.
fn string_from(payload: u64) -> String {
    const CHARS: &str = "aZ9_\"\\\n\t\u{1}é✓ :,{]\u{0}\u{10348}";
    let chars: Vec<char> = CHARS.chars().collect();
    let mut s = String::new();
    let mut p = payload;
    for _ in 0..(payload % 9) {
        s.push(chars[(p % chars.len() as u64) as usize]);
        p = p.rotate_right(7).wrapping_add(13);
    }
    s
}

/// A drawn value tree: `seed` picks the kind and the payload, containers
/// recurse with derived seeds until `depth` runs out.
fn value_from(seed: u64, depth: usize) -> Value {
    let child = |i: u64| seed.rotate_right(11).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
    let kinds = if depth == 0 { 4 } else { 6 };
    match seed % kinds {
        0 => Value::Null,
        1 => Value::Bool((seed >> 8).is_multiple_of(2)),
        2 => Value::UInt(seed >> 3),
        3 => Value::Str(string_from(seed >> 3)),
        4 => Value::Array(
            (0..(seed >> 3) % 4)
                .map(|i| value_from(child(i), depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..(seed >> 3) % 4)
                .map(|i| {
                    let key = format!("k{i}{}", string_from(child(i) >> 40));
                    (key, value_from(child(i), depth - 1))
                })
                .collect(),
        ),
    }
}

/// A top-level object of drawn trees (keys `k0`, `k1`, … so they are
/// unique by construction).
fn object_from(seeds: &[u64]) -> Value {
    Value::Object(
        seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| (format!("k{i}"), value_from(seed, 3)))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// parse(render(v)) == v for any drawn tree — scalars, arrays and
    /// nested objects alike, at top level too.
    fn drawn_values_round_trip(seeds in proptest::collection::vec(0u64..u64::MAX, 0..12)) {
        let doc = object_from(&seeds);
        prop_assert_eq!(parse(&render(&doc, "")), Ok(doc));
        for &seed in &seeds {
            let v = value_from(seed, 4);
            prop_assert_eq!(parse(&render(&v, "")), Ok(v));
        }
    }

    /// Whitespace between tokens is insignificant: a padded render parses
    /// to the same tree.
    fn whitespace_is_insignificant(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..8),
        pad in 0usize..4,
    ) {
        let doc = object_from(&seeds);
        let pad = [" ", "\n", "\t \r", "  \n  "][pad];
        let padded = format!("{pad}{}{pad}", render(&doc, pad));
        prop_assert_eq!(parse(&padded), Ok(doc));
    }

    /// Every strict prefix of a valid document is an error, never a panic
    /// and never a silent partial parse.
    fn strict_prefixes_never_parse(seeds in proptest::collection::vec(0u64..u64::MAX, 1..8)) {
        let doc = render(&object_from(&seeds), "");
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let prefix = &doc[..cut];
            prop_assert!(parse(prefix).is_err(), "prefix {prefix:?} of {doc:?} parsed");
        }
    }

    /// Duplicating any key of a valid object makes the document an error,
    /// wherever the object sits.
    fn duplicate_keys_are_rejected(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..8),
        pick in 0usize..1000,
    ) {
        let Value::Object(mut pairs) = object_from(&seeds) else { unreachable!() };
        let dup = pairs[pick % pairs.len()].clone();
        pairs.push(dup);
        let dup = Value::Object(pairs);
        prop_assert!(parse(&render(&dup, "")).is_err());
        let in_array = Value::Array(vec![Value::Null, dup.clone()]);
        prop_assert!(parse(&render(&in_array, "")).is_err());
        let in_object = Value::Object(vec![("outer".to_string(), dup)]);
        prop_assert!(parse(&render(&in_object, "")).is_err());
    }

    /// Single-byte ASCII mutations of a valid document either parse to
    /// *something* or error — they never panic.
    fn single_byte_mutations_never_panic(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..6),
        pos in 0usize..10_000,
        mutant in 0u8..128,
    ) {
        let mut bytes = render(&object_from(&seeds), "").into_bytes();
        let at = pos % bytes.len();
        bytes[at] = mutant;
        if let Ok(mutated) = String::from_utf8(bytes) {
            // Must not panic; outcome (Ok or Err) is input-dependent.
            let _ = parse(&mutated);
        }
    }

    /// Arbitrary ASCII garbage never panics the parser.
    fn ascii_garbage_never_panics(bytes in proptest::collection::vec(0u8..128, 0..64)) {
        let text: String = bytes.iter().map(|&b| b as char).collect();
        let _ = parse(&text);
    }

    /// Numbers longer than u64 are a structured error, not a wrap or crash.
    fn oversized_numbers_are_rejected(digits in 20usize..60, lead in 1u8..10) {
        let doc = format!("{{\"n\":{}{}}}", lead, "9".repeat(digits));
        let err = parse(&doc).unwrap_err().to_string();
        prop_assert!(err.contains("out of range"), "{err}");
    }
}

/// Nesting is allowed but bounded: a body of 100 000 openers — closed or
/// not, arrays or objects — is a structured error. The bound is checked
/// before recursing, so this test overflows the stack if it is removed.
#[test]
fn runaway_nesting_is_rejected_without_recursing() {
    const DEEP: usize = 100_000;
    for doc in [
        "[".repeat(DEEP),
        "[".repeat(DEEP) + &"]".repeat(DEEP),
        "{\"k\":".repeat(DEEP),
        "{\"k\":".repeat(DEEP) + "0" + &"}".repeat(DEEP),
        format!("{{\"k\":{}}}", "[".repeat(DEEP)),
    ] {
        let err = parse(&doc).unwrap_err().to_string();
        assert!(err.contains("nesting deeper"), "{err}");
    }
}

/// The escape-table edges the property draws may not pin down exactly.
#[test]
fn malformed_escapes_are_structured_errors() {
    for doc in [
        r#"{"k":"\x"}"#,         // unknown escape
        r#"{"k":"\"#,            // escape at end of input
        r#"{"k":"\u12"}"#,       // truncated \u
        r#"{"k":"\u12é"}"#,      // \u running into a multi-byte char
        r#"{"k":"\u+123"}"#,     // a sign is not a hex digit
        r#"{"k":"\ud800"}"#,     // lone surrogate
        "{\"k\":\"raw\u{1}\"}",  // raw control byte
        r#"{"k":"unterminated"#, // unterminated string
        "{\"k\":\"é",            // input ends inside a string
    ] {
        let result = parse(doc);
        assert!(result.is_err(), "{doc:?} parsed: {result:?}");
    }
}
