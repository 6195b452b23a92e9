//! JSON rendering and parsing for the [`Value`] model (the shim's
//! `serde_json`).

use crate::{Deserialize, Error, Serialize, Value};

/// Serialize `t` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(t: &T) -> String {
    let mut out = String::new();
    write_value(&t.to_value(), &mut out);
    out
}

/// Serialize `t` to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(t: &T) -> String {
    let mut out = String::new();
    write_value_pretty(&t.to_value(), &mut out, 0);
    out
}

/// Deserialize a `T` from JSON text.
///
/// # Errors
///
/// [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&parse(s)?)
}

/// Parse JSON text into a [`Value`].
///
/// # Errors
///
/// [`Error`] on malformed JSON or trailing garbage.
pub fn parse(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::custom(format!("trailing characters at byte {pos}")));
    }
    Ok(v)
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(*f, out),
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

fn write_value_pretty(v: &Value, out: &mut String, indent: usize) {
    match v {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_value_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_string(k, out);
                out.push_str(": ");
                write_value_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        out.push_str(&format!("{f:?}"));
    } else {
        // JSON has no NaN/inf; mirror serde_json's `null`.
        out.push_str("null");
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::custom("unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error::custom(format!("expected ',' or ']' at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::custom(format!("expected ':' at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(Error::custom(format!("expected ',' or '}}' at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(Error::custom(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::custom(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::custom("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::custom("invalid \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(Error::custom("invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one go.
                // Both are ASCII, so the run ends on a character boundary
                // of the (already valid) input and is validated once —
                // linear in the string, not in the remaining document.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| Error::custom("invalid UTF-8 in string"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error::custom("invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(Error::custom(format!("expected number at byte {start}")));
    }
    if float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| Error::custom(format!("bad float '{text}': {e}")))
    } else if text.starts_with('-') {
        text.parse::<i64>()
            .map(Value::Int)
            .map_err(|e| Error::custom(format!("bad integer '{text}': {e}")))
    } else {
        text.parse::<u64>()
            .map(Value::UInt)
            .map_err(|e| Error::custom(format!("bad integer '{text}': {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_containers() {
        let v = Value::Map(vec![
            ("a".into(), Value::UInt(7)),
            ("b".into(), Value::Seq(vec![Value::Int(-3), Value::Float(1.5), Value::Null])),
            ("c".into(), Value::Str("x \"y\"\n".into())),
            ("d".into(), Value::Bool(true)),
        ]);
        let text = {
            let mut s = String::new();
            write_value(&v, &mut s);
            s
        };
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse(" { \"k\" : [ 1 , { \"n\" : null } ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_seq().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn large_multibyte_documents_roundtrip() {
        // Over 4 MB of strings mixing multibyte UTF-8 with every escape
        // the writer emits: large enough that per-character work on the
        // remaining input would take minutes. Asserts content only.
        let piece = "Grüße, 世界 🦀 \"quoted\" back\\slash\ttab\nline \u{1}ctl /";
        let items: Vec<Value> = (0..50_000)
            .map(|i| {
                Value::Map(vec![
                    (format!("k{i} ключ"), Value::Str(format!("{piece}{i}"))),
                    ("n".into(), Value::UInt(i)),
                ])
            })
            .collect();
        let v = Value::Seq(items);
        let text = to_string(&v);
        assert!(text.len() >= 4 << 20, "document is only {} bytes", text.len());
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn typed_roundtrip() {
        let xs: Vec<(u64, bool)> = vec![(1, true), (2, false)];
        let text = to_string(&xs);
        assert_eq!(text, "[[1,true],[2,false]]");
        let back: Vec<(u64, bool)> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }
}
