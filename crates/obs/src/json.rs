//! Hand-written JSON: a value tree, a reader and a pretty writer.
//!
//! The stack's configuration is data — the scenario files `siphoc-sim`
//! reads and Fig. 2's account dialog — and its exporters build a
//! [`Value`] that [`Value::to_pretty`] writes, so the format lives here,
//! beside them, on `std` alone. The reader keeps integers exact up to
//! `u64::MAX` (a scenario's `seed` is one), rejects a key given twice,
//! and refuses nesting deeper than [`MAX_DEPTH`] rather than recursing
//! without bound. [`Fields`] reads an object into a struct: keys nobody
//! asks for are ignored, so a file written for an older format still
//! reads, and every error names the key it is about.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number written without sign, fraction or exponent that fits a
    /// `u64`, kept exact.
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: its members in document order, no key twice.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, kept in the order given.
    pub fn obj<'k>(pairs: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The member `key` of an object; `None` when `self` is not an
    /// object or has no such member.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders with two-space indentation, one array element or object
    /// member per line, and no trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `{:?}` prints the shortest digits that read back exactly,
            // keeping `.0` on a whole number. JSON has no NaN or infinity.
            Value::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => {
                let _ = write!(out, "\"{}\"", esc(s));
            }
            Value::Arr(items) => write_members(out, depth, "[]", items.iter().map(|v| (None, v))),
            Value::Obj(pairs) => write_members(
                out,
                depth,
                "{}",
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// The members of an array (`key` is `None`) or an object between the
/// two characters of `brackets`.
fn write_members<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    let mut empty = true;
    for (key, v) in members {
        out.push_str(if empty { "\n" } else { ",\n" });
        out.extend(std::iter::repeat_n("  ", depth + 1));
        if let Some(k) = key {
            let _ = write!(out, "\"{}\": ", esc(k));
        }
        v.write(out, depth + 1);
        empty = false;
    }
    if !empty {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    }
    out.push_str(close);
}

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// How deep arrays and objects may nest. Deeper input is an error, so
/// the recursive reader cannot be driven into a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let found = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if found {
            self.pos += lit.len();
        }
        found
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.skip_ws();
        if self.eat("null") {
            return Ok(Value::Null);
        }
        if self.eat("true") {
            return Ok(Value::Bool(true));
        }
        if self.eat("false") {
            return Ok(Value::Bool(false));
        }
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs: Vec<(String, Value)> = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if pairs.iter().any(|(k, _)| *k == key) {
                        return Err(self.err(&format!("duplicate key {key:?}")));
                    }
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':'"));
                    }
                    pairs.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(pairs));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or '}'"));
                    }
                }
            }
            _ => self.number(),
        }
    }

    /// Advances over `[0-9]*`; true if it moved.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, as RFC 8259
    /// writes it.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let negative = self.eat("-");
        if !self.eat("0") && !self.digits() {
            return Err(self.err("expected a value"));
        }
        let mut whole = !negative;
        if self.eat(".") {
            whole = false;
            if !self.digits() {
                return Err(self.err("expected a digit after '.'"));
            }
        }
        if self.eat("e") || self.eat("E") {
            whole = false;
            let _ = self.eat("+") || self.eat("-");
            if !self.digits() {
                return Err(self.err("expected an exponent"));
            }
        }
        let literal = &self.text[start..self.pos];
        if whole {
            if let Ok(n) = literal.parse() {
                return Ok(Value::Int(n));
            }
        }
        literal
            .parse()
            .ok()
            .filter(|x: &f64| x.is_finite())
            .map(Value::Float)
            .ok_or_else(|| self.err("number out of range"))
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(hex
            .iter()
            .fold(0, |n, &h| n * 16 + char::from(h).to_digit(16).unwrap_or(0)))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            // The stops are ASCII, so the run ends on a char boundary.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    });
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is consumed,
    /// joining a UTF-16 surrogate pair written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut c = self.hex4()?;
        if (0xd800..0xdc00).contains(&c) && self.eat("\\u") {
            let low = self.hex4()?;
            if (0xdc00..0xe000).contains(&low) {
                c = 0x10000 + ((c - 0xd800) << 10) + (low - 0xdc00);
            }
        }
        char::from_u32(c).ok_or_else(|| self.err("unpaired surrogate"))
    }
}

/// A Rust type read from a JSON value.
pub trait FromJson: Sized {
    /// Reads `v`, found at key path `at` (`""` for the document itself);
    /// an error message starts with `at`.
    fn from_json(v: &Value, at: &str) -> Result<Self, String>;
}

/// The error for a value at `at` that is not `what`.
fn expected(at: &str, what: &str) -> String {
    if at.is_empty() {
        format!("expected {what}")
    } else {
        format!("{at}: expected {what}")
    }
}

macro_rules! from_json_unsigned {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Value, at: &str) -> Result<$t, String> {
                match v {
                    Value::Int(n) => <$t>::try_from(*n).ok(),
                    _ => None,
                }
                .ok_or_else(|| expected(at, concat!("an integer that fits ", stringify!($t))))
            }
        }
    )*};
}

from_json_unsigned!(u16, u32, u64, usize);

impl FromJson for f64 {
    fn from_json(v: &Value, at: &str) -> Result<f64, String> {
        match *v {
            Value::Int(n) => Ok(n as f64),
            Value::Float(x) => Ok(x),
            _ => Err(expected(at, "a number")),
        }
    }
}

impl FromJson for bool {
    fn from_json(v: &Value, at: &str) -> Result<bool, String> {
        match *v {
            Value::Bool(b) => Ok(b),
            _ => Err(expected(at, "true or false")),
        }
    }
}

impl FromJson for String {
    fn from_json(v: &Value, at: &str) -> Result<String, String> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(expected(at, "a string")),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value, at: &str) -> Result<Vec<T>, String> {
        match v {
            Value::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::from_json(item, &format!("{at}[{i}]")))
                .collect(),
            _ => Err(expected(at, "an array")),
        }
    }
}

/// An object being read into a struct, one key at a time. Keys nobody
/// asks for are ignored.
pub struct Fields<'a> {
    at: &'a str,
    obj: &'a Value,
}

impl<'a> Fields<'a> {
    /// The members of `v`, an object found at key path `at`; an error if
    /// `v` is not an object.
    pub fn of(v: &'a Value, at: &'a str) -> Result<Fields<'a>, String> {
        match v {
            Value::Obj(_) => Ok(Fields { at, obj: v }),
            _ => Err(expected(at, "an object")),
        }
    }

    fn path(&self, key: &str) -> String {
        if self.at.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", self.at)
        }
    }

    fn get(&self, key: &str) -> Option<&'a Value> {
        self.obj.get(key)
    }

    /// A key that must be present.
    pub fn req<T: FromJson>(&self, key: &str) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("{}: missing", self.path(key)))?;
        T::from_json(v, &self.path(key))
    }

    /// A key that may be missing, which reads as `default`.
    pub fn or<T: FromJson>(&self, key: &str, default: T) -> Result<T, String> {
        self.get(key)
            .map_or(Ok(default), |v| T::from_json(v, &self.path(key)))
    }

    /// A key that may be missing or `null`, both of which read as `None`.
    pub fn opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => T::from_json(v, &self.path(key)).map(Some),
        }
    }

    /// A key whose value is one of the strings in `names`, read as the
    /// value paired with it. A missing key reads as `default`, and is an
    /// error when that is `None`.
    pub fn name<T: Copy>(
        &self,
        key: &str,
        names: &[(&str, T)],
        default: Option<T>,
    ) -> Result<T, String> {
        let Some(v) = self.get(key) else {
            return default.ok_or_else(|| format!("{}: missing", self.path(key)));
        };
        let name = String::from_json(v, &self.path(key))?;
        names
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, t)| t)
            .ok_or_else(|| {
                let known: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
                format!(
                    "{}: unknown variant {name:?}, expected one of {}",
                    self.path(key),
                    known.join(", ")
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::obj([
            ("name", Value::Str("mesh \"calls\"\n\ttab\u{1} é 🎧".into())),
            ("n", Value::Int(12)),
            ("max", Value::Int(u64::MAX)),
            ("tiny", Value::Float(1.234_567_890_123e-7)),
            ("whole", Value::Float(4.0)),
            ("neg", Value::Float(-0.5)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "nested",
                Value::Arr(vec![
                    Value::obj([("k", Value::Arr(vec![]))]),
                    Value::obj([]),
                    Value::Int(3),
                ]),
            ),
        ])
    }

    #[test]
    fn writer_output_reads_back_exactly() {
        let v = sample();
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
        let x = 7.123_456_789_012_345_f64;
        let Value::Float(back) = parse(&Value::Float(x).to_pretty()).unwrap() else {
            panic!("a float reads back as a float");
        };
        assert_eq!(back.to_bits(), x.to_bits());
    }

    #[test]
    fn pretty_layout_is_one_member_per_line() {
        let v = Value::obj([
            ("a", Value::Int(1)),
            ("b", Value::Arr(vec![Value::Float(4.0), Value::Null])),
            ("c", Value::Arr(vec![])),
            ("d", Value::Float(f64::NAN)),
        ]);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    4.0,\n    null\n  ],\n  \"c\": [],\n  \"d\": null\n}"
        );
    }

    #[test]
    fn esc_handles_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_keep_their_type() {
        assert_eq!(parse("18446744073709551615"), Ok(Value::Int(u64::MAX)));
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Value::Float(18_446_744_073_709_551_616.0))
        );
        assert_eq!(parse("-3"), Ok(Value::Float(-3.0)));
        assert_eq!(parse("2.5e1"), Ok(Value::Float(25.0)));
        assert_eq!(parse("0"), Ok(Value::Int(0)));
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(
            parse(r#""a\u00e9\ud83c\udfa7\/\b""#),
            Ok(Value::Str("aé🎧/\u{8}".into()))
        );
    }

    #[test]
    fn reader_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "\"open",
            "NaN",
            "1e999",
            "01",
            "+1",
            ".5",
            "1.",
            "-",
            "\"\\ud800\"",
            "\"\\u12\"",
            "\"tab\there\"",
            "{\"a\":1,\"a\":2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).unwrap_err().contains("MAX_DEPTH"));
        let ok_depth = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&ok_depth).is_ok());
    }

    #[test]
    fn fields_read_typed_values_and_name_the_key() {
        let v = parse(
            r#"{"n": 7, "x": 1, "s": "ok", "kind": "b", "gone": null, "deep": {"v": [1, "two"]}}"#,
        )
        .unwrap();
        let f = Fields::of(&v, "").unwrap();
        assert_eq!(f.req::<u16>("n"), Ok(7));
        assert_eq!(f.req::<f64>("x"), Ok(1.0));
        assert_eq!(f.or("absent", 9u32), Ok(9));
        assert_eq!(f.opt::<String>("gone"), Ok(None));
        assert_eq!(f.opt::<String>("s"), Ok(Some("ok".into())));
        assert_eq!(f.name("kind", &[("a", 1), ("b", 2)], None), Ok(2));
        assert_eq!(f.name("absent", &[("a", 1)], Some(5)), Ok(5));

        assert_eq!(f.req::<u64>("absent").unwrap_err(), "absent: missing");
        assert!(f.req::<u64>("s").unwrap_err().starts_with("s: expected"));
        assert!(f
            .req::<bool>("gone")
            .unwrap_err()
            .starts_with("gone: expected"));
        let unknown = f.name("kind", &[("a", 1)], None).unwrap_err();
        assert_eq!(unknown, "kind: unknown variant \"b\", expected one of a");
        let deep = Fields::of(f.get("deep").unwrap(), "deep").unwrap();
        assert!(deep
            .req::<Vec<u64>>("v")
            .unwrap_err()
            .starts_with("deep.v[1]: expected"));
        assert!(Fields::of(&Value::Int(1), "").is_err());
    }
}
