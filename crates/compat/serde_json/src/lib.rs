//! Minimal, offline stand-in for `serde_json`: a JSON printer and parser
//! over the workspace serde crate's [`Value`] model.
//!
//! Supports the surface this workspace uses — [`to_string`],
//! [`to_string_pretty`], [`from_str`], [`to_value`], [`from_value`] — with
//! deterministic output (object key order is preserved from the
//! serializer, floats print via Rust's shortest round-trip `{:?}`). The
//! printer itself lives in [`serde::json`], next to the
//! [`Serialize::write_json`] writers that share it.
//!
//! [`JsonReader`] is the typed decode path: a pull reader over the same
//! tokenizer the tree parser runs, so a string, number or literal reads
//! the same either way, and a key or string with no escapes is borrowed
//! from the text instead of copied.

use std::borrow::Cow;

pub use serde::Value;
use serde::{DeError, Deserialize, Kind, Seq, Serialize};

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error(e.0)
    }
}

impl From<Error> for DeError {
    fn from(e: Error) -> DeError {
        DeError(e.0)
    }
}

/// Serializes `value` into its [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Rebuilds a `T` from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    Ok(T::from_value(value)?)
}

/// Serializes `value` as compact JSON, through [`Serialize::write_json`].
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serializes `value` as indented JSON (two spaces, like real serde_json).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    serde::json::write_value(&value.to_value(), &mut out, Some("  "), 0);
    Ok(out)
}

/// Parses JSON text into a `T`. The parsed tree moves into `T`
/// ([`Deserialize::from_owned_value`]), so parsing to a [`Value`] copies
/// nothing.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = JsonReader::new(s);
    p.skip_ws();
    let v = p.parse_value(0)?;
    p.end()?;
    Ok(T::from_owned_value(v)?)
}

const MAX_DEPTH: usize = 128;

/// The JSON tokenizer: the tree parser behind [`from_str`], and a pull
/// [`serde::Reader`] for typed decodes ([`Deserialize::read`]).
pub struct JsonReader<'a> {
    text: &'a str,
    s: &'a [u8],
    pos: usize,
    /// Containers the typed reader is inside: the depth the tree parser
    /// would be at for the next value.
    depth: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> JsonReader<'a> {
        JsonReader {
            text,
            s: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Checks that only whitespace follows the value read.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.s.len() {
            return Err(Error(format!("trailing characters at byte {}", self.pos)));
        }
        Ok(())
    }

    /// Skips whitespace before the next value, refusing one nested
    /// deeper than the tree parser allows.
    fn next_value(&mut self) -> Result<(), Error> {
        if self.depth > MAX_DEPTH {
            return Err(Error("JSON nesting too deep".to_owned()));
        }
        self.skip_ws();
        Ok(())
    }

    /// A string borrowed from the text when it holds no escape; the
    /// cursor is on its opening quote.
    fn parse_str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek_byte() == Some(b'"') {
            let start = self.pos + 1;
            let rest = &self.s[start..];
            if let Some(len) = rest.iter().position(|&b| b == b'"' || b == b'\\') {
                if rest[len] == b'"' {
                    // Both delimiters are ASCII, so the run ends on a
                    // char boundary of the text.
                    self.pos = start + len + 1;
                    return Ok(Cow::Borrowed(&self.text[start..start + len]));
                }
            }
        }
        self.parse_string().map(Cow::Owned)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.s.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.s[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error("JSON nesting too deep".to_owned()));
        }
        match self.peek_byte() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek_byte() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek_byte() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(Error(format!("expected `,` or `]` at byte {}", self.pos)))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek_byte() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    let val = self.parse_value(depth + 1)?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.peek_byte() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => {
                            return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos)))
                        }
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek_byte() {
                None => return Err(Error("unterminated string".to_owned())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek_byte() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair: expect a following \uXXXX.
                                self.pos += 1;
                                if self.peek_byte() != Some(b'\\') {
                                    return Err(Error("lone high surrogate".to_owned()));
                                }
                                self.pos += 1;
                                if self.peek_byte() != Some(b'u') {
                                    return Err(Error("lone high surrogate".to_owned()));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error("invalid low surrogate".to_owned()));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                                    .ok_or_else(|| Error("invalid surrogate pair".to_owned()))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| Error("invalid \\u escape".to_owned()))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(Error(format!(
                                "invalid escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote
                    // or escape as one slice. Both delimiters are ASCII, so
                    // the run ends on a char boundary of the input `&str`,
                    // and validating it costs the run's length — never the
                    // rest of the input.
                    let rest = &self.s[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| Error("invalid UTF-8".to_owned()))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor on the `u`).
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.s.len() {
            return Err(Error("truncated \\u escape".to_owned()));
        }
        let hex = std::str::from_utf8(&self.s[start..end])
            .map_err(|_| Error("invalid \\u escape".to_owned()))?;
        let cp =
            u32::from_str_radix(hex, 16).map_err(|_| Error("invalid \\u escape".to_owned()))?;
        self.pos = end - 1; // caller advances past the final digit
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek_byte() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.pos])
            .map_err(|_| Error("invalid number".to_owned()))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::Int(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

impl<'a> serde::Reader<'a> for JsonReader<'a> {
    fn peek(&mut self) -> Result<Kind, DeError> {
        self.next_value()?;
        match self.peek_byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            _ => Err(DeError(format!("no value at byte {}", self.pos))),
        }
    }

    fn scalar(&mut self) -> Result<Value, DeError> {
        self.next_value()?;
        match self.peek_byte() {
            Some(b'n' | b't' | b'f' | b'-' | b'0'..=b'9') => Ok(self.parse_value(self.depth)?),
            _ => Err(DeError(format!("expected a scalar at byte {}", self.pos))),
        }
    }

    fn str(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.next_value()?;
        Ok(self.parse_str()?)
    }

    fn array(&mut self) -> Result<Seq, DeError> {
        self.next_value()?;
        self.eat(b'[')?;
        self.depth += 1;
        Ok(Seq(0))
    }

    fn element(&mut self, seq: &mut Seq) -> Result<bool, DeError> {
        self.skip_ws();
        let more = match (seq.0, self.peek_byte()) {
            (_, Some(b']')) => false,
            (0, _) => true,
            (_, Some(b',')) => true,
            _ => return Err(DeError(format!("expected `,` or `]` at byte {}", self.pos))),
        };
        if more {
            self.pos += usize::from(seq.0 == 1);
            seq.0 = 1;
        } else {
            self.pos += 1;
            self.depth -= 1;
        }
        Ok(more)
    }

    fn object(&mut self) -> Result<Seq, DeError> {
        self.next_value()?;
        self.eat(b'{')?;
        self.depth += 1;
        Ok(Seq(0))
    }

    fn key(&mut self, seq: &mut Seq) -> Result<Option<Cow<'a, str>>, DeError> {
        self.skip_ws();
        match (seq.0, self.peek_byte()) {
            (_, Some(b'}')) => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(None);
            }
            (0, _) => {}
            (_, Some(b',')) => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => {
                return Err(DeError(format!(
                    "expected `,` or `}}` at byte {}",
                    self.pos
                )))
            }
        }
        seq.0 = 1;
        let key = self.parse_str()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(Some(key))
    }

    fn value(&mut self) -> Result<Value, DeError> {
        self.next_value()?;
        Ok(self.parse_value(self.depth)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&0.3f64).unwrap(), "0.3");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"a\"b\n").unwrap(), r#""a\"b\n""#);
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("0.3").unwrap(), 0.3);
        assert_eq!(from_str::<f64>("2").unwrap(), 2.0);
        assert_eq!(from_str::<String>(r#""aAb""#).unwrap(), "aAb");
    }

    #[test]
    fn roundtrip_containers() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,null,3]");
        assert_eq!(from_str::<Vec<Option<u32>>>(&s).unwrap(), v);
    }

    #[test]
    fn pretty_prints_with_two_space_indent() {
        let v: Vec<u32> = vec![1, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }

    #[test]
    fn strings_decode_runs_escapes_and_surrogates() {
        let cases = [
            (r#""héllo wörld ✓ 𝄞""#, "héllo wörld ✓ 𝄞"),
            (r#""ünï\ncödé""#, "ünï\ncödé"),
            (r#""\u00e9tude é\t""#, "étude é\t"),
            (r#""x\"y\\z\/""#, "x\"y\\z/"),
            (r#""a\ud834\udd1eb𝄞""#, "a𝄞b𝄞"),
            (r#""\b\f\r""#, "\u{8}\u{c}\r"),
            (r#""""#, ""),
        ];
        for (json, want) in cases {
            assert_eq!(from_str::<String>(json).unwrap(), want, "{json}");
            // Every string the writer emits reads back unchanged.
            assert_eq!(
                from_str::<String>(&to_string(&want).unwrap()).unwrap(),
                want
            );
        }
        // Object keys take the same path.
        let v: Value = from_str(r#"{"clé ✓":1,"k\u00e9y":[]}"#).unwrap();
        let Value::Object(entries) = v else {
            panic!("object expected")
        };
        assert_eq!(entries[0].0, "clé ✓");
        assert_eq!(entries[1].0, "kéy");
        // A long plain run decodes in one piece.
        let long = "ab✓".repeat(100_000);
        assert_eq!(from_str::<String>(&format!("\"{long}\"")).unwrap(), long);
    }

    #[test]
    fn string_errors_are_unchanged() {
        let err = |json: &str| from_str::<String>(json).unwrap_err().0;
        assert_eq!(err(r#""abc"#), "unterminated string");
        assert_eq!(err(r#""é✓"#), "unterminated string");
        assert_eq!(err(r#""ab\"#), "invalid escape None at byte 4");
        assert_eq!(err(r#""ab\x""#), "invalid escape Some('x') at byte 4");
        assert_eq!(err(r#""é\q""#), "invalid escape Some('q') at byte 4");
        assert_eq!(err(r#""\ud834x""#), "lone high surrogate");
        assert_eq!(err(r#""\ud834\u0041""#), "invalid low surrogate");
        assert_eq!(err(r#""\u12zz""#), "invalid \\u escape");
        assert_eq!(err(r#""\u12""#), "truncated \\u escape");
    }

    /// Reads `s` through `T`'s typed [`Deserialize::read`].
    fn from_str_typed<T: Deserialize>(s: &str) -> Result<T, DeError> {
        let mut r = JsonReader::new(s);
        let v = T::read(&mut r)?;
        r.end()?;
        Ok(v)
    }

    /// The typed reader gives back what the tree parser does, for the
    /// std types' overrides (scalars, strings, options, vectors) and for
    /// a `Value` read whole; a refusal is where the tree refuses too.
    #[test]
    fn typed_reads_equal_tree_reads() {
        for json in [
            "[1,null,3]",
            " [ ] ",
            "[\n 7 ,\t-0 , 01]",
            "[1.5]",
            "[18446744073709551616]",
            "[1,]",
            "[,1]",
            "[1 2]",
            "[\"1\"]",
        ] {
            assert_eq!(
                from_str_typed::<Vec<Option<u64>>>(json).ok(),
                from_str::<Vec<Option<u64>>>(json).ok(),
                "{json}"
            );
        }
        for json in [r#""plain""#, r#""esc\u00e9\"q""#, r#""x" y"#, r#""open"#] {
            assert_eq!(
                from_str_typed::<String>(json).ok(),
                from_str::<String>(json).ok(),
                "{json}"
            );
        }
        for json in [r#"{"a":[1,{"b":null}],"c":"d"}"#, "{} x", "[[[]]]"] {
            assert_eq!(
                from_str_typed::<Value>(json).ok(),
                from_str::<Value>(json).ok(),
                "{json}"
            );
        }
        // The depth guard holds where the typed reader opens the
        // containers itself.
        let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
        assert!(from_str::<Value>(&deep).is_err());
        assert!(from_str_typed::<Vec<Vec<Value>>>(&deep).is_err());
    }

    #[test]
    fn escape_free_strings_and_keys_are_borrowed() {
        use serde::Reader as _;
        let mut r = JsonReader::new(r#"{"key":"value","k\u0065y":"v\n"}"#);
        let mut seq = r.object().unwrap();
        let key = r.key(&mut seq).unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("key")), "{key:?}");
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("value")));
        let key = r.key(&mut seq).unwrap().unwrap();
        assert!(matches!(key, Cow::Owned(ref k) if k == "key"), "{key:?}");
        assert!(matches!(r.str().unwrap(), Cow::Owned(ref v) if v == "v\n"));
        assert_eq!(r.key(&mut seq).unwrap(), None);
        r.end().unwrap();
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("42 x").is_err());
        assert!(from_str::<Vec<u32>>("[1,").is_err());
    }
}
