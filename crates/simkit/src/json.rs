//! The one JSON writer. Every document the workspace emits — registry
//! snapshots, `--stats-json`, `--timeline` and `--trace` — is written
//! through these functions, so escaping and number formatting are
//! defined once. Each appends to a caller-supplied `String`; there is
//! no value tree, so a serializer allocates only the text it writes.

use std::fmt::Write as _;

/// Appends `s` as a JSON string: `"` and `\` are backslash-escaped,
/// control characters become `\u00XX`, and everything else (non-ASCII
/// included) passes through.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` in Rust's shortest round-trip form, or `null` when it is
/// not finite (JSON has no NaN or infinity).
pub fn f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `xs` as an array of integers.
pub fn u64_array(out: &mut String, xs: &[u64]) {
    out.push('[');
    for x in xs {
        sep(out);
        let _ = write!(out, "{x}");
    }
    out.push(']');
}

/// Appends the `,` that separates object or array entries, unless `out`
/// has just opened one (ends in `{` or `[`).
pub fn sep(out: &mut String) {
    if !out.ends_with(['{', '[']) {
        out.push(',');
    }
}

/// Starts an object entry: the separator, then `"name":`.
pub fn key(out: &mut String, name: &str) {
    sep(out);
    string(out, name);
    out.push(':');
}

/// Opens an object inside an array with one string entry,
/// `{"name":"value"`, left open for the caller's further entries.
pub fn open_object(out: &mut String, name: &str, value: &str) {
    sep(out);
    out.push('{');
    key(out, name);
    string(out, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls_only() {
        assert_eq!(with(|o| string(o, r#"a"b"#)), r#""a\"b""#);
        assert_eq!(with(|o| string(o, r"a\b")), r#""a\\b""#);
        assert_eq!(with(|o| string(o, "a\u{1}b\n")), r#""a\u0001b\u000a""#);
        assert_eq!(with(|o| string(o, "é→{x=1}/")), "\"é→{x=1}/\"");
        assert_eq!(with(|o| string(o, "")), "\"\"");
    }

    #[test]
    fn floats_match_display_and_non_finite_is_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(with(|o| f64(o, v)), "null");
        }
        for v in [-0.0, 1e300, 0.1, 2.0, 0.817, -3.5e-9, f64::MAX] {
            assert_eq!(with(|o| f64(o, v)), format!("{v}"));
        }
        assert_eq!(with(|o| f64(o, -0.0)), "-0");
        assert_eq!(with(|o| f64(o, 2.0)), "2");
    }

    #[test]
    fn arrays_of_every_length() {
        assert_eq!(with(|o| u64_array(o, &[])), "[]");
        assert_eq!(with(|o| u64_array(o, &[7])), "[7]");
        assert_eq!(
            with(|o| u64_array(o, &[0, 1, u64::MAX])),
            "[0,1,18446744073709551615]"
        );
    }

    #[test]
    fn objects_of_every_length() {
        assert_eq!(with(|o| o.push_str("{}")), "{}");
        let one = with(|o| {
            o.push('{');
            key(o, "a");
            o.push('1');
            o.push('}');
        });
        assert_eq!(one, r#"{"a":1}"#);
        let many = with(|o| {
            o.push('{');
            key(o, "a");
            u64_array(o, &[1, 2]);
            key(o, "b\"");
            o.push('{');
            o.push('}');
            key(o, "c");
            f64(o, f64::NAN);
            o.push('}');
        });
        assert_eq!(many, r#"{"a":[1,2],"b\"":{},"c":null}"#);
        let in_array = with(|o| {
            o.push('[');
            for id in ["x", "y\\"] {
                open_object(o, "id", id);
                o.push('}');
            }
            o.push(']');
        });
        assert_eq!(in_array, r#"[{"id":"x"},{"id":"y\\"}]"#);
    }

    #[test]
    fn separators_follow_closed_values_not_openers() {
        let nested = with(|o| {
            o.push('[');
            sep(o);
            o.push('[');
            sep(o);
            o.push_str("1]");
            sep(o);
            string(o, "[");
            o.push(']');
        });
        assert_eq!(nested, r#"[[1],"["]"#);
    }
}
