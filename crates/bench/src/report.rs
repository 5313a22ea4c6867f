//! Machine-readable reports.
//!
//! `edgebench` prints one JSON document per scenario and writes it to
//! `results/scenario_<name>.json`, whose determinism fields the CI
//! scenario-matrix step diffs across a same-seed rerun; `tracedump
//! --json` renders through the same value tree. This module is the
//! single JSON-writing path they share: a tiny [`Json`] value tree
//! (the build is offline, so no serde) plus [`envelope`] and
//! [`emit`], which prints the rendered report and persists it.
//!
//! Every report opens with `bench`, `schema_version`, `groups` (the
//! number of controller groups the workload ran across) and
//! `host_cores` (`available_parallelism` on the machine that produced
//! the numbers). Performance numbers are `curbbench`'s job
//! (`benchmark/README.md`), not this module's.

use std::fmt::Write as _;

/// The schema version every report stamps.
pub const SCHEMA_VERSION: u64 = 7;

/// A JSON value with deterministic, pretty-printed rendering.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float rendered with a fixed number of decimals.
    Fixed(f64, usize),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience object constructor from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as pretty-printed JSON (2-space indent).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, level: usize) {
        let pad = "  ".repeat(level);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Fixed(x, decimals) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:.decimals$}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write(out, level + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}  \"{}\": ", escape(key));
                    value.write(out, level + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
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

/// Builds the common report envelope: `bench`, `schema_version`,
/// `groups` and `host_cores` first, then the benchmark-specific
/// fields. `host_cores` pins the report to the parallelism of the
/// machine that produced it, so numbers from different hosts are
/// never compared by accident.
pub fn envelope(bench: &str, groups: usize, fields: Vec<(&str, Json)>) -> Json {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    let mut all = vec![
        ("bench", Json::str(bench)),
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        ("groups", Json::UInt(groups as u64)),
        ("host_cores", Json::UInt(host_cores)),
    ];
    all.extend(fields);
    Json::obj(all)
}

/// Prints the report to stdout and writes it (newline-terminated) to
/// `out_path`. A write failure warns instead of aborting — the run's
/// numbers are already on stdout.
pub fn emit(bench: &str, out_path: &str, report: &Json) {
    let rendered = report.render();
    println!("{rendered}");
    if let Err(e) = std::fs::write(out_path, format!("{rendered}\n")) {
        eprintln!("warning: could not write {out_path}: {e}");
    } else {
        eprintln!("{bench}: report written to {out_path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_report() {
        let report = envelope(
            "demo",
            2,
            vec![
                ("throughput", Json::Fixed(123.456, 2)),
                ("tags", Json::Arr(vec![Json::str("a"), Json::str("b")])),
                ("nested", Json::obj(vec![("x", Json::Int(-1))])),
                ("none", Json::Null),
            ],
        );
        let text = report.render();
        assert!(text.contains("\"schema_version\": 7"));
        assert!(text.contains("\"groups\": 2"));
        assert!(text.contains("\"host_cores\": "));
        assert!(text.contains("\"throughput\": 123.46"));
        assert!(text.contains("\"x\": -1"));
        // Balanced braces/brackets — the document must parse.
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "{text}"
        );
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn escapes_hostile_strings() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(Json::Fixed(f64::NAN, 2).render(), "null");
        assert_eq!(Json::Fixed(f64::INFINITY, 2).render(), "null");
    }
}
