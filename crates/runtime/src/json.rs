//! The one JSON codec: every byte of JSON text this workspace reads goes
//! through [`parse`].
//!
//! The tree is registry-free (no serde), and what it reads back are
//! artifacts whose worth is the strictness of their reader: run manifests,
//! lockstep reports, `/run` and `/replay` bodies. So the codec accepts a
//! deliberately small JSON and nothing else:
//!
//! - values are `null`, booleans, **unsigned** 64-bit integers, strings,
//!   arrays and objects — floats, negatives and leading zeros are errors;
//! - duplicate keys and trailing bytes are errors;
//! - containers nest at most `MAX_DEPTH` deep, checked before recursing, so
//!   a hostile body of a million `[` costs one error, not the stack;
//! - there are no options.
//!
//! Writers stay fixed-order `format!` at their call sites — canonical
//! bodies need exact byte control — but every string goes out through
//! [`escape`] and comes back through this parser, so any string
//! round-trips.
//!
//! Sealed documents (manifests, reports) add two things: the checksum
//! envelope ([`seal`] / [`unseal`]: a trailing FNV-64 `"checksum"` field
//! over the body bytes, verified before any field is believed) and the
//! ordered field cursor [`Fields`] ("the next key must be `version`";
//! leftovers are an error), which is what rejects unknown and reordered
//! fields.

use crate::fingerprint::Fnv64;
use std::fmt;

/// Deepest container nesting [`parse`] accepts. The deepest document this
/// workspace writes is 3 (`/run` body → manifest → hash array).
const MAX_DEPTH: usize = 32;

/// The envelope's field, spelled once: [`seal`] appends it, [`unseal`]
/// looks for it. An escaped string can never contain it (its quotes would
/// be `\"`), so the last occurrence in a sealed text is the envelope's.
const CHECKSUM_MARKER: &str = ",\"checksum\":\"";

/// Why a text was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The text is not the strict JSON this codec accepts, or a document's
    /// fields are not the ones its reader expects.
    Parse(String),
    /// A sealed document's body does not hash to its trailing checksum.
    Checksum {
        /// Checksum stored in the text.
        stored: u64,
        /// Checksum of the text's actual body bytes.
        actual: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(msg) => f.write_str(msg),
            Error::Checksum { stored, actual } => write!(
                f,
                "checksum mismatch: stored {stored:016x}, body hashes to {actual:016x}"
            ),
        }
    }
}

impl std::error::Error for Error {}

fn parse_error<T>(msg: impl Into<String>) -> Result<T, Error> {
    Err(Error::Parse(msg.into()))
}

/// A parsed JSON value. Objects keep document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number this codec reads).
    UInt(u64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: unique keys, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The hash, if this is a string of exactly 16 lowercase hex digits —
    /// how every document here spells a 64-bit hash (`{:016x}`).
    pub fn as_hex(&self) -> Option<u64> {
        self.as_str().and_then(hex16)
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

fn hex16(s: &str) -> Option<u64> {
    let strict = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    strict.then(|| u64::from_str_radix(s, 16).ok()).flatten()
}

/// Escapes `s` for embedding between the quotes of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses `text` as exactly one value (see the [module docs](self) for
/// what is accepted), or names the reason it is not one.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut sc = Scanner { text, pos: 0 };
    let value = sc.value(0)?;
    match sc.peek() {
        None => Ok(value),
        Some(_) => sc.fail("trailing bytes after value"),
    }
}

struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl Scanner<'_> {
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next byte after insignificant whitespace.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
        self.byte()
    }

    fn fail<T>(&self, what: &str) -> Result<T, Error> {
        parse_error(format!("{what} at byte {}", self.pos))
    }

    /// `depth` counts the containers already open around this value.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                self.fail(&format!("nesting deeper than {MAX_DEPTH}"))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-') => self.fail("negative numbers are not accepted here"),
            Some(b) => self.fail(&format!("unexpected byte `{}`", b.escape_ascii())),
            None => self.fail("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if !self.text[self.pos..].starts_with(word) {
            return self.fail("malformed literal");
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let digits = &self.text[start..self.pos];
        if matches!(self.byte(), Some(b'.' | b'e' | b'E')) {
            return self.fail("fractional numbers are not accepted here");
        }
        if digits.len() > 1 && digits.starts_with('0') {
            return self.fail("leading zeros are not accepted");
        }
        match digits.parse() {
            Ok(n) => Ok(Value::UInt(n)),
            Err(_) => self.fail("integer out of range"),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // the opening quote `value`/`object` saw
        let mut out = String::new();
        loop {
            // A run of plain bytes ends at an ASCII byte (or the end), so
            // both ends of the slice are char boundaries.
            let start = self.pos;
            while self
                .byte()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.byte() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escaped()?);
                }
                Some(_) => return self.fail("raw control byte in string"),
            }
        }
    }

    /// The character an escape sequence stands for (the `\` is consumed).
    fn escaped(&mut self) -> Result<char, Error> {
        let Some(esc) = self.byte() else {
            return self.fail("unterminated escape");
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                // Four hex digits naming a scalar value; surrogates are
                // refused (this codec's own writer never emits them).
                let c = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32);
                let Some(c) = c else {
                    return self.fail("malformed \\u escape");
                };
                self.pos += 4;
                c
            }
            other => return self.fail(&format!("unknown escape `\\{}`", other.escape_ascii())),
        })
    }

    /// A comma-separated list up to `close` (the opener is the current
    /// byte); `item` parses one element.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.pos += 1;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let close = close as char;
                    return self.fail(&format!("expected `,` or `{close}` after value"));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        let mut items = Vec::new();
        self.list(b']', |sc| {
            items.push(sc.value(depth)?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        let mut pairs = Vec::new();
        self.list(b'}', |sc| {
            if sc.peek() != Some(b'"') {
                return sc.fail("expected a string key");
            }
            let key = sc.string()?;
            if sc.peek() != Some(b':') {
                return sc.fail("expected `:` after key");
            }
            sc.pos += 1;
            pairs.push((key, sc.value(depth)?));
            Ok(())
        })?;
        // Sorted, not pairwise: a megabyte of distinct keys must not cost
        // a quadratic scan.
        let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
            return parse_error(format!("duplicate key {:?}", dup[0]));
        }
        Ok(Value::Object(pairs))
    }
}

/// An ordered cursor over one object's fields, for documents whose key
/// order is part of the format: each read names the key that must come
/// next, and [`Fields::end`] rejects leftovers.
#[derive(Debug)]
pub struct Fields(std::vec::IntoIter<(String, Value)>);

impl Fields {
    /// A cursor over `value`'s fields; an error if it is not an object.
    pub fn new(value: Value) -> Result<Fields, Error> {
        match value {
            Value::Object(pairs) => Ok(Fields(pairs.into_iter())),
            _ => parse_error("expected an object"),
        }
    }

    /// The next field's value; an error unless its key is `key`.
    fn next(&mut self, key: &str) -> Result<Value, Error> {
        match self.0.next() {
            Some((found, value)) if found == key => Ok(value),
            Some((found, _)) => parse_error(format!("expected field `{key}`, found `{found}`")),
            None => parse_error(format!("missing field `{key}`")),
        }
    }

    fn typed<T>(
        &mut self,
        key: &str,
        what: &str,
        get: impl FnOnce(Value) -> Option<T>,
    ) -> Result<T, Error> {
        let value = self.next(key)?;
        get(value).map_or_else(|| parse_error(format!("`{key}` must be {what}")), Ok)
    }

    /// The next field, an integer.
    pub fn u64(&mut self, key: &str) -> Result<u64, Error> {
        self.typed(key, "an integer", |v| v.as_u64())
    }

    /// The next field, an integer or `null`.
    pub fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, Error> {
        self.typed(key, "an integer or null", |v| match v {
            Value::Null => Some(None),
            v => v.as_u64().map(Some),
        })
    }

    /// The next field, a boolean.
    pub fn bool(&mut self, key: &str) -> Result<bool, Error> {
        self.typed(key, "a boolean", |v| v.as_bool())
    }

    /// The next field, a string.
    pub fn string(&mut self, key: &str) -> Result<String, Error> {
        self.typed(key, "a string", |v| match v {
            Value::Str(s) => Some(s),
            _ => None,
        })
    }

    /// The next field, a 16-digit hex hash ([`Value::as_hex`]).
    pub fn hex(&mut self, key: &str) -> Result<u64, Error> {
        self.typed(key, "a 16-digit hex hash", |v| v.as_hex())
    }

    /// The next field, an array.
    pub fn array(&mut self, key: &str) -> Result<Vec<Value>, Error> {
        self.typed(key, "an array", |v| match v {
            Value::Array(items) => Some(items),
            _ => None,
        })
    }

    /// The next field, an array whose every item `get` accepts (`what`
    /// names the items in the error, e.g. `"hex hashes"`).
    pub fn array_of<T>(
        &mut self,
        key: &str,
        what: &str,
        get: impl Fn(&Value) -> Option<T>,
    ) -> Result<Vec<T>, Error> {
        self.typed(key, &format!("an array of {what}"), |v| {
            v.as_array()?.iter().map(get).collect()
        })
    }

    /// Ends the object; an error if any field was not read.
    pub fn end(mut self) -> Result<(), Error> {
        match self.0.next() {
            None => Ok(()),
            Some((key, _)) => parse_error(format!("unknown field `{key}`")),
        }
    }
}

fn checksum(body: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(body.as_bytes());
    h.finish()
}

/// Seals `body` — a serialized, non-empty JSON object — into a one-line
/// document: the body with a trailing `"checksum"` field holding the FNV-64
/// of the body's bytes, then a newline.
pub fn seal(body: &str) -> String {
    let open = body
        .strip_suffix('}')
        .expect("a sealed body is a serialized object");
    format!("{open}{CHECKSUM_MARKER}{:016x}\"}}\n", checksum(body))
}

/// Opens a document written by [`seal`]: verifies the trailing checksum
/// against the body's bytes *before* parsing any of them, then hands back
/// the body's fields. Trailing whitespace is not part of the document.
pub fn unseal(text: &str) -> Result<Fields, Error> {
    let text = text.trim_end();
    let Some(at) = text.rfind(CHECKSUM_MARKER) else {
        return parse_error("missing checksum field");
    };
    let Some(stored) = text[at + CHECKSUM_MARKER.len()..]
        .strip_suffix("\"}")
        .and_then(hex16)
    else {
        return parse_error("malformed checksum field");
    };
    let body = format!("{}}}", &text[..at]);
    let actual = checksum(&body);
    if actual != stored {
        return Err(Error::Checksum { stored, actual });
    }
    Fields::new(parse(&body)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind_in_document_order() {
        let v =
            parse(r#" {"app": "bfs", "n": 4, "on": true, "x": null, "a": [1, [], {}]} "#).unwrap();
        assert_eq!(v.get("app").and_then(Value::as_str), Some("bfs"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("on").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("x"), Some(&Value::Null));
        assert_eq!(
            v.get("a").and_then(Value::as_array),
            Some(&[Value::UInt(1), Value::Array(vec![]), Value::Object(vec![])][..])
        );
        assert_eq!(v.get("missing"), None);
        let Value::Object(pairs) = v else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["app", "n", "on", "x", "a"]);
    }

    #[test]
    fn rejects_what_the_codec_does_not_read() {
        for doc in [
            r#"{"a": 1.5}"#,
            r#"{"a": 1e3}"#,
            r#"{"a": -1}"#,
            r#"{"a": 01}"#,
            r#"{"a": 1} extra"#,
            r#"{"a" 1}"#,
            r#"{"a": 1,}"#,
            r#"{a: 1}"#,
            r#"[1,]"#,
            r#"[1 2]"#,
            r#"{"a": 1, "a": 2}"#,
            r#"{"o": {"a": 1, "b": 2, "a": 1}}"#,
            "truth",
            "",
        ] {
            assert!(parse(doc).is_err(), "{doc:?} parsed");
        }
        // Distinct keys that merely share a prefix are fine.
        assert!(parse(r#"{"a": 1, "aa": 2}"#).is_ok());
    }

    #[test]
    fn depth_limit_parses_and_one_more_is_an_error() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n - 1) + "{}" + &"}".repeat(n - 1);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for doc in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = parse(&doc).unwrap_err().to_string();
            assert!(err.contains("nesting deeper"), "{err}");
        }
    }

    #[test]
    fn reads_every_escape_and_writes_the_minimal_ones() {
        // The reader takes the whole table, including the escapes `escape`
        // never writes (`\/`, `\b`, `\f`, `\u` of a printable character).
        let v = parse(r#""a\"b\\c\nd\r\t\/\b\f\u0041\u00e9\u2713""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\r\t/\u{8}\u{c}Aé✓"));
        assert_eq!(escape("a\"b\\c\nd\u{1}é"), "a\\\"b\\\\c\\nd\\u0001é");
    }

    #[test]
    fn hex_is_exactly_sixteen_lowercase_digits() {
        let hex = |s: &str| Value::Str(s.into()).as_hex();
        assert_eq!(hex("00000000000000ff"), Some(255));
        assert_eq!(hex("ffffffffffffffff"), Some(u64::MAX));
        for bad in [
            "ff",
            "00000000000000FF",
            "+0000000000000ff",
            "00000000000000ff0",
            "",
        ] {
            assert_eq!(hex(bad), None, "{bad:?}");
        }
        assert_eq!(Value::UInt(255).as_hex(), None);
    }

    #[test]
    fn fields_enforce_order_types_and_exhaustion() {
        let fields = || Fields::new(parse(r#"{"version":1,"app":"bfs","seed":null}"#).unwrap());
        let mut f = fields().unwrap();
        assert_eq!(f.u64("version"), Ok(1));
        assert_eq!(f.string("app").as_deref(), Ok("bfs"));
        assert_eq!(f.opt_u64("seed"), Ok(None));
        assert_eq!(f.end(), Ok(()));

        let msg = |r: Result<u64, Error>| r.unwrap_err().to_string();
        // Reordered: the first key is not the one asked for.
        assert!(msg(fields().unwrap().u64("app")).contains("expected field `app`"));
        // Wrong type.
        let mut f = fields().unwrap();
        f.next("version").unwrap();
        assert!(msg(f.u64("app")).contains("must be an integer"));
        // Leftovers are unknown fields; running out is a missing field.
        let mut f = fields().unwrap();
        f.next("version").unwrap();
        assert!(f
            .end()
            .unwrap_err()
            .to_string()
            .contains("unknown field `app`"));
        let mut f = Fields::new(parse("{}").unwrap()).unwrap();
        assert!(msg(f.u64("version")).contains("missing field"));
        assert!(Fields::new(Value::UInt(1)).is_err());

        let mut f =
            Fields::new(parse(r#"{"h":["00000000000000ff"],"n":[1,"x"]}"#).unwrap()).unwrap();
        assert_eq!(f.array_of("h", "hex hashes", Value::as_hex), Ok(vec![255]));
        assert!(f.array_of("n", "integers", Value::as_u64).is_err());
    }

    #[test]
    fn seal_and_unseal_are_inverse_and_checksum_comes_first() {
        // A string may hold the envelope's own marker: escaped, it is inert.
        let note = format!("a \"quoted\" {CHECKSUM_MARKER} decoy");
        let body = format!("{{\"version\":1,\"note\":\"{}\"}}", escape(&note));
        let text = seal(&body);
        assert!(text.starts_with(&body[..body.len() - 1]) && text.ends_with("\"}\n"));
        let mut f = unseal(&text).unwrap();
        assert_eq!(f.u64("version"), Ok(1));
        assert_eq!(f.string("note"), Ok(note));
        assert_eq!(f.end(), Ok(()));

        // A body edit is a checksum error even where it also breaks syntax.
        let broken = text.replacen("\"version\":1", "\"version\":", 1);
        assert!(matches!(unseal(&broken), Err(Error::Checksum { .. })));
        // No envelope, or a mangled one, is a parse error.
        assert!(matches!(unseal(&body), Err(Error::Parse(_))));
        assert!(matches!(
            unseal(&text[..text.len() - 3]),
            Err(Error::Parse(_))
        ));
        assert!(matches!(unseal(""), Err(Error::Parse(_))));
    }
}
