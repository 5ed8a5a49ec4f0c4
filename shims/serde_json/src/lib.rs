//! Offline stand-in for `serde_json`: writes JSON text as a
//! [`serde::Serializer`] ([`Writer`]) and reads JSON text (RFC 8259) as a
//! pull-based [`serde::Deserializer`], so neither [`to_string`] nor
//! [`from_str`] builds a tree. Integers round-trip exactly (`u64`/`i64` are
//! never routed through `f64`); non-finite floats serialize as `null` and
//! parse back as NaN. See `shims/README.md`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use serde::{Deserialize, Deserializer, Kind, Serialize, Serializer, Str, Value, MAX_DEPTH};
use std::io::Write as _;

pub use serde::Error;

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    text(value, None)
}

/// Serializes `value` as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    text(value, Some(2))
}

fn text<T: Serialize + ?Sized>(value: &T, indent: Option<usize>) -> Result<String, Error> {
    let mut out = Vec::new();
    value.serialize(&mut Writer {
        indent,
        ..Writer::new(&mut out)
    });
    Ok(String::from_utf8(out).expect("the writer emits UTF-8"))
}

/// Decodes JSON text into any shim-deserializable type, reading straight
/// from the text; anything after the value but whitespace is an error.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut reader = Reader {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
        first: false,
        scratch: String::new(),
    };
    let value = T::deserialize(&mut reader)?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(reader.error("trailing characters"));
    }
    Ok(value)
}

// ---- writer ----------------------------------------------------------------

/// The JSON [`Serializer`]: appends one document's compact text to a buffer.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// Spaces per nesting level, when pretty-printing.
    indent: Option<usize>,
    /// The closing bracket of each open array or object, innermost last.
    open: Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A compact writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Writer {
            out,
            indent: None,
            open: Vec::new(),
        }
    }

    /// Starts a value: an array element is an entry, a map value is not.
    fn value(&mut self) {
        if self.open.last() == Some(&b']') {
            self.entry();
        }
    }

    /// Separates and indents the next entry of the innermost container (a
    /// container whose opening bracket was the last byte has none yet).
    fn entry(&mut self) {
        if !matches!(self.out.last(), Some(b'[' | b'{')) {
            self.out.push(b',');
        }
        self.newline(self.open.len());
    }

    fn newline(&mut self, depth: usize) {
        if let Some(width) = self.indent {
            self.out.push(b'\n');
            self.out.resize(self.out.len() + width * depth, b' ');
        }
    }

    fn string(&mut self, s: &str) {
        self.out.push(b'"');
        for &b in s.as_bytes() {
            match b {
                b'"' => self.out.extend_from_slice(b"\\\""),
                b'\\' => self.out.extend_from_slice(b"\\\\"),
                b'\n' => self.out.extend_from_slice(b"\\n"),
                b'\r' => self.out.extend_from_slice(b"\\r"),
                b'\t' => self.out.extend_from_slice(b"\\t"),
                ..=0x1f => write!(self.out, "\\u{b:04x}").expect("a `Vec` write cannot fail"),
                _ => self.out.push(b),
            }
        }
        self.out.push(b'"');
    }
}

impl Serializer for Writer<'_> {
    fn scalar(&mut self, v: Value) {
        if let Value::Str(_) | Value::Array(_) | Value::Object(_) = v {
            return v.serialize(self);
        }
        self.value();
        match v {
            Value::Bool(b) => write!(self.out, "{b}"),
            Value::Int(i) => write!(self.out, "{i}"),
            Value::UInt(u) => write!(self.out, "{u}"),
            // `{:?}` is Rust's shortest round-trip float formatting.
            Value::Float(f) if f.is_finite() => write!(self.out, "{f:?}"),
            _ => write!(self.out, "null"),
        }
        .expect("a `Vec` write cannot fail");
    }

    fn str(&mut self, v: &str) {
        self.value();
        self.string(v);
    }

    fn seq(&mut self, _: usize) {
        self.value();
        self.out.push(b'[');
        self.open.push(b']');
    }

    fn map(&mut self, _: usize) {
        self.value();
        self.out.push(b'{');
        self.open.push(b'}');
    }

    fn key(&mut self, key: &str) {
        self.entry();
        self.string(key);
        let colon: &[u8] = if self.indent.is_some() { b": " } else { b":" };
        self.out.extend_from_slice(colon);
    }

    fn end(&mut self) {
        let close = self.open.pop().expect("`end` closes an open container");
        if !matches!(self.out.last(), Some(b'[' | b'{')) {
            self.newline(self.open.len());
        }
        self.out.push(close);
    }

    #[inline]
    fn splice(&mut self, encoded: &[u8]) {
        self.value();
        self.out.extend_from_slice(encoded);
    }
}

// ---- reader ----------------------------------------------------------------

/// Pull reader over JSON text.
struct Reader<'de> {
    text: &'de str,
    bytes: &'de [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Set when an array or object opens, cleared by its first
    /// `next_element`/`next_key`: the one read that expects no `,`.
    first: bool,
    /// Unescaped copy of the last string that had escapes.
    scratch: String,
}

/// Where a parsed string lives: a span of the input, or the scratch buffer.
enum Span {
    Input(usize, usize),
    Scratch,
}

impl<'de> Reader<'de> {
    fn error(&self, what: &str) -> Error {
        Error::custom(format!("{what} at offset {}", self.pos))
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    #[inline]
    fn peek_byte(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn unexpected(&self) -> Error {
        match self.bytes.get(self.pos) {
            Some(&b) => self.error(&format!("unexpected {:?}", b as char)),
            None => self.error("unexpected end of input"),
        }
    }

    /// The "expected X, found Y" error for the value at the cursor.
    fn mismatch(&mut self, expected: &str) -> Error {
        let found = match self.peek_byte() {
            Some(b'n') => Value::Null,
            Some(b't' | b'f') => Value::Bool(false),
            Some(b'"') => Value::Str(String::new()),
            Some(b'[') => Value::Array(Vec::new()),
            Some(b'{') => Value::Object(Vec::new()),
            Some(b'-' | b'0'..=b'9') => match self.number() {
                Ok(number) => number,
                Err(e) => return e,
            },
            _ => return self.unexpected(),
        };
        Error::mismatch(expected, &found)
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    /// Consumes one or more ASCII digits.
    #[inline]
    fn digits(&mut self) -> Result<(), Error> {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("invalid number"));
        }
        Ok(())
    }

    /// A number by the JSON grammar: `-? (0 | [1-9][0-9]*) frac? exp?`.
    /// Without a fraction or exponent it is exact — `UInt` if it fits
    /// `u64`, else `Int` if it fits `i64` — and a `Float` otherwise.
    #[inline]
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        let mut magnitude = 0u64;
        match self.bytes.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(&digit @ b'0'..=b'9') = self.bytes.get(self.pos) {
                    magnitude = magnitude
                        .wrapping_mul(10)
                        .wrapping_add(u64::from(digit - b'0'));
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        let int_end = self.pos;
        // 19 digits always fit a `u64`; a longer integer part may not.
        let magnitude = match int_end - int_start {
            ..=19 => Some(magnitude),
            _ => self.text[int_start..int_end].parse::<u64>().ok(),
        };
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.pos) {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            self.digits()?;
        }
        if self.pos == int_end {
            match (negative, magnitude) {
                (false, Some(u)) => return Ok(Value::UInt(u)),
                (true, Some(u)) if u <= 1 << 63 => {
                    return Ok(Value::Int((u as i64).wrapping_neg()))
                }
                _ => {}
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.error("bad \\u escape"))?;
        let code = digits.iter().fold(0, |acc, &d| {
            acc * 16 + (d as char).to_digit(16).expect("hex digit")
        });
        self.pos += 4;
        Ok(code)
    }

    /// Decodes the escape after a backslash into the scratch buffer.
    fn escape(&mut self) -> Result<(), Error> {
        let Some(&esc) = self.bytes.get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        let c = match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                let code = match unit {
                    // A high surrogate must pair with a low one.
                    0xD800..=0xDBFF if self.bytes[self.pos..].starts_with(b"\\u") => {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(self.error("lone surrogate in \\u escape"));
                        }
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xD800..=0xDFFF => return Err(self.error("lone surrogate in \\u escape")),
                    _ => unit,
                };
                char::from_u32(code).expect("non-surrogate code point")
            }
            other => {
                return Err(self.error(&format!("unknown escape `\\{}`", other as char)));
            }
        };
        self.scratch.push(c);
        Ok(())
    }

    /// Parses the string at the cursor (which is on its opening quote).
    /// Escape-free strings stay a span of the input; others are unescaped
    /// into the scratch buffer. Unescaped control characters are rejected.
    #[inline]
    fn parse_string(&mut self) -> Result<Span, Error> {
        self.pos += 1;
        let start = self.pos;
        let mut copied = false;
        loop {
            let run = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if copied {
                self.scratch.push_str(&self.text[run..self.pos]);
            }
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(if copied {
                        Span::Scratch
                    } else {
                        Span::Input(start, self.pos - 1)
                    });
                }
                Some(b'\\') => {
                    if !copied {
                        copied = true;
                        self.scratch.clear();
                        self.scratch.push_str(&self.text[start..self.pos]);
                    }
                    self.pos += 1;
                    self.escape()?;
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    #[inline]
    fn resolve(&self, span: Span) -> Str<'de, '_> {
        match span {
            Span::Input(start, end) => Str::Borrowed(&self.text[start..end]),
            Span::Scratch => Str::Copied(&self.scratch),
        }
    }

    /// Enters the array or object whose opening bracket is at the cursor.
    #[inline]
    fn open(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.first = true;
        Ok(())
    }

    /// Leaves the array or object whose closing bracket is at the cursor.
    #[inline]
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    /// Steps past the `,` before the next entry of the open array or
    /// object; `false` (after closing it) when `close` comes instead.
    #[inline]
    fn next_entry(&mut self, close: u8) -> Result<bool, Error> {
        let next = self.peek_byte();
        if std::mem::take(&mut self.first) {
            if next == Some(close) {
                self.close();
                return Ok(false);
            }
            return Ok(true);
        }
        match next {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.close();
                Ok(false)
            }
            _ => Err(self.error(&format!("expected `,` or `{}`", close as char))),
        }
    }
}

impl<'de> Deserializer<'de> for Reader<'de> {
    #[inline]
    fn peek(&mut self) -> Result<Kind, Error> {
        Ok(match self.peek_byte() {
            Some(b'n') => Kind::Null,
            Some(b't' | b'f') => Kind::Bool,
            Some(b'-' | b'0'..=b'9') => Kind::Number,
            Some(b'"') => Kind::Str,
            Some(b'[') => Kind::Array,
            Some(b'{') => Kind::Object,
            _ => return Err(self.unexpected()),
        })
    }

    #[inline]
    fn scalar(&mut self, expected: &str) -> Result<Value, Error> {
        match self.peek_byte() {
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            _ => Err(self.mismatch(expected)),
        }
    }

    #[inline]
    fn string(&mut self, expected: &str) -> Result<Str<'de, '_>, Error> {
        if self.peek_byte() != Some(b'"') {
            return Err(self.mismatch(expected));
        }
        let span = self.parse_string()?;
        Ok(self.resolve(span))
    }

    #[inline]
    fn seq(&mut self, expected: &str) -> Result<Option<usize>, Error> {
        if self.peek_byte() != Some(b'[') {
            return Err(self.mismatch(expected));
        }
        self.open()?;
        Ok(None)
    }

    #[inline]
    fn next_element(&mut self) -> Result<bool, Error> {
        self.next_entry(b']')
    }

    #[inline]
    fn map(&mut self, expected: &str) -> Result<(), Error> {
        if self.peek_byte() != Some(b'{') {
            return Err(self.mismatch(expected));
        }
        self.open()
    }

    #[inline]
    fn next_key(&mut self) -> Result<Option<Str<'de, '_>>, Error> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        if self.peek_byte() != Some(b'"') {
            return Err(self.error("expected string key"));
        }
        let key = self.parse_string()?;
        if self.peek_byte() != Some(b':') {
            return Err(self.error("expected `:`"));
        }
        self.pos += 1;
        Ok(Some(self.resolve(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&u64::MAX).unwrap(), u64::MAX.to_string());
        assert_eq!(from_str::<u64>(&u64::MAX.to_string()).unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-42").unwrap(), -42);
        assert_eq!(from_str::<f64>("1e3").unwrap(), 1000.0);
    }

    #[test]
    fn collections_round_trip() {
        let v: Vec<(u32, String)> = vec![(1, "a\"b".into()), (2, "\n".into())];
        let json = to_string(&v).unwrap();
        let back: Vec<(u32, String)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_parses_back() {
        let v = vec![vec![1u64, 2], vec![3]];
        let json = to_string_pretty(&v).unwrap();
        assert!(json.contains('\n'));
        let back: Vec<Vec<u64>> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<bool>("true x").is_err());
        assert!(from_str::<Vec<u32>>("[1, ").is_err());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for bad in [
            "0123", "01.5", "1.", "-", "+1", ".5", "1e", "1e+", "--1", "-01", "1.e3", "0x10",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "accepted {bad}");
        }
        for (text, want) in [
            ("0", Value::UInt(0)),
            ("-0", Value::Int(0)),
            ("10", Value::UInt(10)),
            ("-9223372036854775808", Value::Int(i64::MIN)),
            ("18446744073709551615", Value::UInt(u64::MAX)),
            ("18446744073709551616", Value::Float(18446744073709551616.0)),
            ("0.5", Value::Float(0.5)),
            ("-1.5e+3", Value::Float(-1500.0)),
            ("1E-2", Value::Float(0.01)),
            ("2e0", Value::Float(2.0)),
        ] {
            assert_eq!(from_str::<Value>(text).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn strings_reject_raw_control_characters() {
        assert!(from_str::<String>("\"a\tb\"").is_err());
        assert!(from_str::<String>("\"a\nb\"").is_err());
        assert!(from_str::<String>("\"\u{1}\"").is_err());
        assert_eq!(from_str::<String>(r#""a\tb""#).unwrap(), "a\tb");
        assert_eq!(from_str::<String>(r#""\u0001\/""#).unwrap(), "\u{1}/");
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        // What Python's `json.dumps` writes for an astral character.
        assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "😀");
        assert_eq!(from_str::<String>(r#""x\uD83D\uDE00y""#).unwrap(), "x😀y");
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\u12""#,
            r#""\u+041""#,
        ] {
            assert!(from_str::<String>(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn the_writer_never_emits_a_form_the_reader_rejects() {
        let text: String = (0u32..0x80)
            .filter_map(char::from_u32)
            .chain(['é', '✓', '😀', '\u{10FFFF}'])
            .collect();
        assert_eq!(
            from_str::<String>(&to_string(&text).unwrap()).unwrap(),
            text
        );
        for f in [0.0, -0.0, 1.0, 0.1, 1e300, -2.5e-308, 5e-324, f64::MAX] {
            let back: f64 = from_str(&to_string(&f).unwrap()).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f}");
        }
        for i in [i64::MIN, -1, 0, i64::MAX] {
            assert_eq!(from_str::<i64>(&to_string(&i).unwrap()).unwrap(), i);
        }
    }

    /// `depth` nested arrays around a `0`.
    fn nested(depth: usize) -> String {
        format!("{}0{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 100_000] {
            let err = from_str::<Value>(&nested(depth)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
        // Unclosed, and inside a field the decoder skips: still an error,
        // not a stack overflow.
        #[derive(Debug, serde::Deserialize)]
        struct Unit;
        let doc = format!("{{\"skipped\":{}", "[".repeat(100_000));
        let err = from_str::<Unit>(&doc).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        let doc = format!("{{\"skipped\":{}}}", nested(MAX_DEPTH - 1));
        assert!(from_str::<Unit>(&doc).is_ok());
    }
}
