//! A minimal JSON value: enough to emit the result line and
//! `BENCHMARK.json`, and (in tests) to read them back. No crates.io
//! access, so no serde.

use std::fmt::Write as _;

/// A JSON value (no `null`: nothing the benchmark writes needs one).
/// Objects keep insertion order so emitted files diff cleanly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line encoding.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented encoding with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "JSON cannot carry {n}");
                // `{}` on f64 prints the shortest string that parses back
                // to the same bits: a measured value keeps all its digits.
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Reading back is only needed to check what was written.
#[cfg(test)]
impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

#[cfg(test)]
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad token at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match esc {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(b) => {
                    out.push(*b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_keeps_every_digit_and_order() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            (
                "metrics",
                Json::obj([(
                    "sma_tick_p50_us",
                    Json::obj([
                        ("value", Json::Num(1_203.400_000_000_1)),
                        ("unit", Json::str("us")),
                    ]),
                )]),
            ),
            ("why", Json::str("a \"quoted\" line\nwith a tab\t and \\")),
            ("empty", Json::Arr(vec![])),
            (
                "list",
                Json::Arr(vec![Json::Num(-0.5e-7), Json::Bool(false)]),
            ),
        ]);
        for text in [doc.compact(), doc.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
        assert!(!doc.compact().contains('\n'));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("sma_tick_p50_us"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1_203.400_000_000_1)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "{\"a\":1} x", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
