//! The one JSON printer: compact and indented output of a [`Value`]
//! tree, plus the scalar writers that [`Serialize::write_json`]
//! overrides share with it, so the direct and the tree paths print
//! every number and string the same way.
//!
//! Output is deterministic: object keys keep their order, floats print
//! via Rust's shortest round-trip `{:?}`.
//!
//! [`Serialize::write_json`]: crate::Serialize::write_json

use std::fmt::Write as _;

use crate::Value;

/// Prints `v` into `out`: compact when `indent` is `None`, otherwise one
/// element per line, indented by `indent` per level from `depth`.
pub fn write_value(v: &Value, out: &mut String, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => write_i64(*n, out),
        Value::UInt(n) => write_u64(*n, out),
        Value::Float(x) => write_f64(*x, out),
        Value::String(s) => write_str(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_str(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(unit) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(unit);
        }
    }
}

/// Prints an unsigned integer in decimal.
pub fn write_u64(mut n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

/// Prints a signed integer in decimal.
pub fn write_i64(n: i64, out: &mut String) {
    if n < 0 {
        out.push('-');
    }
    write_u64(n.unsigned_abs(), out);
}

/// Prints a float in Rust's shortest round-trip form (`0.3`, `1.0`,
/// `1e300`), which is valid JSON for finite values.
pub fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        // Real serde_json errors on non-finite floats; emitting null
        // keeps printing infallible and never occurs for the
        // workspace's data (probabilities and AWCTs are finite).
        out.push_str("null");
    }
}

/// Prints a quoted, escaped JSON string.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    // Copy runs that need no escape as whole slices. Every byte that
    // needs one is ASCII, so each run ends on a char boundary.
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn printed(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn integers_print_like_display() {
        for n in [0, 1, 9, 10, 99, 12_345, u64::MAX] {
            assert_eq!(printed(|o| write_u64(n, o)), n.to_string());
        }
        for n in [0, -1, 7, -10, i64::MIN, i64::MAX] {
            assert_eq!(printed(|o| write_i64(n, o)), n.to_string());
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(
            printed(|o| write_str("a\"b\\c\nd\re\tf\u{1}g\u{1f}é✓", o)),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fé✓\""
        );
        assert_eq!(printed(|o| write_str("", o)), "\"\"");
    }
}
