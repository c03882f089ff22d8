//! Minimal deterministic JSON document model.
//!
//! Every JSON artifact the repo writes (traces, experiment results) is
//! diffed across runs and commits, so its bytes must depend on the value
//! alone. A [`Json`] tree renders to a deterministic, pretty
//! two-space-indented document: object keys keep insertion order, and
//! numbers use Rust's shortest-round-trip `f64` formatting, so a render is
//! byte-stable and trace dumps diff cleanly.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order so renders are stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as a pretty-printed document with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Escapes `s` as a JSON string literal (quotes included) onto `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::str("e19")),
            ("count", Json::Num(3.0)),
            ("ratio", Json::Num(0.5)),
            ("tags", Json::Arr(vec![Json::str("a"), Json::str("b")])),
            ("empty", Json::Obj(Vec::new())),
        ]);
        let text = doc.render();
        assert!(text.contains("\"name\": \"e19\""));
        assert!(text.contains("\"count\": 3"));
        assert!(text.contains("\"ratio\": 0.5"));
        assert!(text.contains("\"empty\": {}"));
        assert_eq!(text, doc.render(), "rendering is deterministic");
    }

    #[test]
    fn escapes_control_characters() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn integers_render_without_fraction() {
        let mut out = String::new();
        write_num(&mut out, 42.0);
        assert_eq!(out, "42");
        out.clear();
        write_num(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }
}
