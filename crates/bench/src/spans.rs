//! Span → report plumbing for `edgebench`.
//!
//! A scenario report embeds a `phases_ns` breakdown (one latency
//! histogram per span name), and `--trace-dir` splits the same spans
//! into per-node files; this is the one place that grouping and
//! rendering live.

use crate::report::Json;
use curb_telemetry::{Histogram, SpanRecord};
use std::collections::BTreeMap;

/// Groups trace spans by name into one duration histogram each.
pub fn phase_histograms(spans: &[SpanRecord]) -> Vec<(String, Histogram)> {
    let mut by_name: BTreeMap<String, Histogram> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name.to_string())
            .or_default()
            .record(s.dur_ns);
    }
    by_name.into_iter().collect()
}

/// Splits spans by the node label their recording thread carried —
/// the per-node trace files `tracedump --distributed` stitches back
/// together. Spans recorded on unlabeled threads land under
/// `"unlabeled"`.
pub fn split_by_node(spans: &[SpanRecord]) -> BTreeMap<String, Vec<SpanRecord>> {
    let mut by_node: BTreeMap<String, Vec<SpanRecord>> = BTreeMap::new();
    for s in spans {
        let node = s.node.as_deref().unwrap_or("unlabeled").to_string();
        by_node.entry(node).or_default().push(s.clone());
    }
    by_node
}

/// Writes one `<node>.jsonl` per node into `dir` (created if absent),
/// returning `(files, spans)` written.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn write_node_traces(
    dir: impl AsRef<std::path::Path>,
    spans: &[SpanRecord],
) -> std::io::Result<(usize, usize)> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let by_node = split_by_node(spans);
    let mut written = 0;
    for (node, spans) in &by_node {
        curb_telemetry::write_jsonl(dir.join(format!("{node}.jsonl")), spans)?;
        written += spans.len();
    }
    Ok((by_node.len(), written))
}

/// Renders the grouped histograms as the `phases_ns` report field.
pub fn phases_json(phases: &[(String, Histogram)]) -> Json {
    if phases.is_empty() {
        return Json::Null;
    }
    Json::Obj(
        phases
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("count", Json::UInt(h.count())),
                        ("p50", Json::UInt(h.value_at_quantile(0.50))),
                        ("p90", Json::UInt(h.value_at_quantile(0.90))),
                        ("p99", Json::UInt(h.value_at_quantile(0.99))),
                        ("max", Json::UInt(h.max())),
                    ]),
                )
            })
            .collect(),
    )
}
