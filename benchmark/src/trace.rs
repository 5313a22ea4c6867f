//! The harness's own spans, and what it harvests from the spans and
//! registries the program already publishes.
//!
//! Harness spans wrap the calls the benchmark makes into each layer
//! (name, start, end, parent, round id). They share the telemetry
//! crate's clock with the program's spans, are kept in memory while
//! the run measures, and are written out as JSONL when it ends.

use crate::stats::percentile;
use curb_telemetry::{now_nanos, to_jsonl, Registry, SpanRecord};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Most spans of one kind (harness requests, program spans) written
/// to a trace file; a saturated launch records several hundred
/// thousand, far more than the file is useful for.
const MAX_LINES_PER_KIND: usize = 20_000;

/// Index of a harness span within its [`Recorder`].
pub type SpanId = usize;

/// One harness span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the harness was doing, e.g. `"probe.crypto.sha256"`.
    pub name: String,
    /// Start, telemetry-clock nanoseconds.
    pub start_ns: u64,
    /// End, telemetry-clock nanoseconds.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request this span belongs to, when it belongs to one.
    pub round: Option<u64>,
}

/// In-memory store of harness spans.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let now = now_nanos();
        self.push(name, now, now, parent, None)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = now_nanos();
    }

    /// Records a span whose start and end are already known.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        round: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Recorder, SpanId) -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f(self, id);
        self.close(id);
        out
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

fn harness_line(out: &mut String, id: SpanId, s: &Span) {
    let _ = write!(
        out,
        "{{\"src\":\"harness\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
        s.name, s.start_ns, s.end_ns
    );
    if let Some(p) = s.parent {
        let _ = write!(out, ",\"parent\":{p}");
    }
    if let Some(r) = s.round {
        let _ = write!(out, ",\"round\":{r}");
    }
    out.push_str("}\n");
}

/// Writes the harness spans and the harvested program spans to
/// `path`, one flat JSON object per line: harness spans are tagged
/// `"src":"harness"`, program spans are as `curb_telemetry::to_jsonl`
/// renders them. Per-request harness spans and program spans are each
/// capped at [`MAX_LINES_PER_KIND`]; the first line says how many
/// there were.
pub fn write_trace(path: &Path, rec: &Recorder, program: &[SpanRecord]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"src\":\"meta\",\"harness_spans\":{},\"program_spans\":{},\"max_lines_per_kind\":{MAX_LINES_PER_KIND}}}",
        rec.spans().len(),
        program.len()
    );
    let mut requests = 0;
    for (id, s) in rec.spans().iter().enumerate() {
        if s.round.is_some() {
            requests += 1;
            if requests > MAX_LINES_PER_KIND {
                continue;
            }
        }
        harness_line(&mut out, id, s);
    }
    // The program's spans go out in the telemetry crate's own format.
    out.push_str(&to_jsonl(&program[..program.len().min(MAX_LINES_PER_KIND)]));
    let mut file = io::BufWriter::new(fs::File::create(path)?);
    file.write_all(out.as_bytes())?;
    file.flush()
}

/// Median duration, in nanoseconds, of the program spans named
/// `name`; `None` when the launch recorded none.
pub fn span_p50_ns(spans: &[SpanRecord], name: &str) -> Option<f64> {
    let mut durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64)
        .collect();
    durs.sort_by(f64::total_cmp);
    percentile(&durs, 0.5)
}

/// Sum of counter `name` over the given registries.
pub fn counter_sum(registries: &[Registry], name: &str) -> u64 {
    registries
        .iter()
        .flat_map(|r| r.counters())
        .filter(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .sum()
}

/// Median of histogram `name` in `registry`, `None` when it is empty.
pub fn histogram_p50(registry: &Registry, name: &str) -> Option<f64> {
    registry
        .histograms()
        .into_iter()
        .find(|(n, h)| *n == name && !h.is_empty())
        .map(|(_, h)| h.value_at_quantile(0.5) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise_flat() {
        let mut rec = Recorder::default();
        let inner = rec.scope("run", None, |rec, run| {
            rec.scope("probe.x", Some(run), |_, id| id)
        });
        rec.push("gen.request", 5, 9, Some(0), Some(42));
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[inner].parent, Some(0));
        assert!(spans[0].start_ns <= spans[inner].start_ns);
        assert!(spans[inner].end_ns <= spans[0].end_ns);

        let mut line = String::new();
        harness_line(&mut line, 2, &spans[2]);
        let parsed = curb_telemetry::json::parse_flat_object(line.trim()).expect("flat JSON");
        assert_eq!(
            parsed.get("round"),
            Some(&curb_telemetry::json::JsonValue::Number(42.0))
        );
        assert_eq!(
            parsed.get("parent"),
            Some(&curb_telemetry::json::JsonValue::Number(0.0))
        );
    }

    #[test]
    fn span_median_picks_by_name() {
        let span = |name: &'static str, dur_ns| SpanRecord {
            name: name.into(),
            start_ns: 0,
            dur_ns,
            replica: -1,
            seq: -1,
            ctx: curb_telemetry::TraceCtx::NONE,
            node: None,
        };
        let spans = [span("a", 10), span("b", 999), span("a", 30), span("a", 20)];
        assert_eq!(span_p50_ns(&spans, "a"), Some(20.0));
        assert_eq!(span_p50_ns(&spans, "c"), None);
    }
}
