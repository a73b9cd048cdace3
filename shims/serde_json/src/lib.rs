//! Minimal vendored `serde_json` for offline builds: serializes the
//! `serde` shim's [`Value`] tree to JSON text and parses it back.
//!
//! Covers the subset the workspace uses: `to_string`, `to_vec`,
//! `from_str`, `from_slice`, `Result`, `Error`. Non-finite floats are
//! written as `null` (like upstream) and read back as NaN.

use serde::{Deserialize, Serialize, Value};

pub use serde::Error;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.serialize(), &mut out);
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    T::deserialize(&v)
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

// ---------- writer ----------

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` is Rust's shortest round-trip float formatting.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

// ---------- parser ----------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        other => {
                            return Err(Error::msg(format!(
                                "expected `,` or `]` at byte {}, found {other:?}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        other => {
                            return Err(Error::msg(format!(
                                "expected `,` or `}}` at byte {}, found {other:?}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(Error::msg("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest
                        .get(1)
                        .copied()
                        .ok_or_else(|| Error::msg("bad escape"))?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::msg("bad \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::msg("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::msg("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for this
                            // workspace's identifiers; map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::msg(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Copy the run up to the next `"` or `\\` in one piece.
                    // Both are ASCII, so the run ends on a character
                    // boundary and validates on its own.
                    let len = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|e| Error::msg(format!("invalid utf-8: {e}")))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structures() {
        let v = Value::Map(vec![
            ("a".to_string(), Value::UInt(u64::MAX)),
            ("b".to_string(), Value::Int(-7)),
            ("c".to_string(), Value::Float(0.1)),
            (
                "d".to_string(),
                Value::Seq(vec![Value::Bool(true), Value::Null]),
            ),
            ("e".to_string(), Value::Str("q\"\\\n✓".to_string())),
        ]);
        let mut s = String::new();
        write_value(&v, &mut s);
        let back: Value = from_str(&s).expect("parse");
        assert_eq!(back, v);
    }

    #[test]
    fn multi_byte_text_round_trips_next_to_escapes() {
        let text = r#"{"kä\"y✓":"é\n日本\u00e9β\"γ\\ü","\u2713x":"🦀"}"#;
        let v: Value = from_str(text).expect("parse");
        let expected = Value::Map(vec![
            (
                "kä\"y✓".to_string(),
                Value::Str("é\n日本éβ\"γ\\ü".to_string()),
            ),
            ("✓x".to_string(), Value::Str("🦀".to_string())),
        ]);
        assert_eq!(v, expected);
        let back: Value = from_slice(&to_vec(&v).expect("serialize")).expect("reparse");
        assert_eq!(back, expected);
    }

    #[test]
    fn unterminated_strings_are_errors() {
        for text in [r#""abc"#, r#"{"a":"b"#, r#""é✓"#, r#""abc\"#, r#""x\""#] {
            assert!(from_str::<Value>(text).is_err(), "{text}");
        }
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        for bytes in [&b"\"\xff\""[..], b"{\"k\xc3\":1}", b"\"ok\" \xe2\x9c"] {
            assert!(from_slice::<Value>(bytes).is_err(), "{bytes:?}");
        }
    }

    #[test]
    fn many_keys_before_a_large_array_parse_in_linear_time() {
        // Scanning the rest of the input once per string character made
        // this shape (an artifact's keys, then its weights) quadratic.
        let mut text = String::from("{");
        for i in 0..20_000 {
            text.push_str(&format!("\"k{i}\":{i},"));
        }
        text.push_str("\"w\":[");
        for i in 0..400_000 {
            text.push_str(if i == 0 { "0.123456" } else { ",0.123456" });
        }
        text.push_str("]}");
        assert!(text.len() > 3_000_000);
        let start = std::time::Instant::now();
        let v: Value = from_str(&text).expect("parse");
        let elapsed = start.elapsed();
        let Value::Map(entries) = v else {
            panic!("not a map")
        };
        assert_eq!(entries.len(), 20_001);
        assert!(elapsed.as_secs_f64() < 5.0, "parse took {elapsed:?}");
    }

    #[test]
    fn floats_round_trip_shortest() {
        for x in [0.0f64, 1.5, -2.25, 1e-9, 3.402_823_5e38, f64::MIN_POSITIVE] {
            let s = to_string(&x).expect("serialize");
            let back: f64 = from_str(&s).expect("parse");
            assert_eq!(back, x, "{s}");
        }
    }
}
