//! Cross-node trace assembly: stitches per-node JSONL span files into
//! per-round critical paths.
//!
//! Input is a directory of traces, one file per node (as written by
//! `edgebench --trace-dir`), each recorded against that node's own
//! monotonic clock. Rounds are correlated by [`TraceCtx`] key — the
//! `(origin, nonce)` pair minted by the issuing s-agent and carried
//! through every protocol hop — and clocks are aligned with no
//! protocol support at all, purely from span containment:
//!
//! For one round, the agent's `cluster.round` span covers the whole
//! round in real time, so any same-round span from another node (the
//! group leader's `cluster.intra`, the final leader's
//! `cluster.final_round`) must nest inside it. A parent `[a0, a1]` on
//! node A and a child `[b0, b1]` on node B therefore bound the offset
//! that maps B's clock onto A's: `a0 - b0 ≤ off ≤ a1 - b1`.
//! Intersecting these intervals over every shared round tightens the
//! estimate to well under one round-trip; the midpoint is the offset
//! used. Offsets compose along a BFS tree from a reference node, so
//! nodes that never share a round directly still align through
//! intermediates.
//!
//! The assembled output is one [`AssembledRound`] per context key: the
//! five legs of the paper's Steps 1–4 (request fan-out, intra-group
//! consensus, AGREE hand-off, final-committee consensus, REPLY) with
//! all timestamps in the reference clock domain.

use curb_telemetry::SpanRecord;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::Path;

/// The spans of one node, tagged with the node's name (the trace file
/// stem).
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// Node name — `ctrl0`, `agent3`, …
    pub node: String,
    /// The node's spans, in its own clock domain.
    pub spans: Vec<SpanRecord>,
}

/// Loads every `*.jsonl` file in `dir` as one [`NodeTrace`] each.
///
/// # Errors
///
/// Propagates directory and file I/O errors, and the parse error of
/// any malformed trace file.
pub fn load_dir(dir: impl AsRef<Path>) -> std::io::Result<Vec<NodeTrace>> {
    let mut traces = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    entries.sort();
    for path in entries {
        let node = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let spans = curb_telemetry::read_jsonl(&path)?;
        traces.push(NodeTrace { node, spans });
    }
    Ok(traces)
}

/// The agent-side whole-round span.
pub const ROUND_SPAN: &str = "cluster.round";
/// The group leader's intra-group consensus span.
pub const INTRA_SPAN: &str = "cluster.intra";
/// The final leader's per-round final-committee span.
pub const FINAL_SPAN: &str = "cluster.final_round";

/// The five legs of an assembled round, in protocol order.
pub const LEG_NAMES: [&str; 5] = ["request", "intra", "handoff", "final", "reply"];

/// One cross-node round, reassembled and clock-aligned.
#[derive(Debug, Clone)]
pub struct AssembledRound {
    /// The round's correlation key `(origin agent, nonce)`.
    pub key: (u64, u64),
    /// Node that issued the request (owner of the `cluster.round` span).
    pub agent: String,
    /// Node that ran the intra-group round, when observed.
    pub leader: Option<String>,
    /// Node that ran the final-committee round, when observed.
    pub finalizer: Option<String>,
    /// Whole-round duration as the agent saw it.
    pub total_ns: u64,
    /// Durations of the five legs (see [`LEG_NAMES`]), aligned to the
    /// reference clock. Missing legs are zero.
    pub legs: [u64; 5],
    /// Whether all three span kinds were present — a complete
    /// PACKET_IN → FLOW_MOD reconstruction across nodes.
    pub complete: bool,
}

/// Clock-offset estimates per node, in nanoseconds to *add* to that
/// node's timestamps to land in the reference node's clock domain.
#[derive(Debug, Default)]
pub struct ClockAlignment {
    /// The node every offset is relative to.
    pub reference: String,
    /// Offsets by node name (reference maps to 0). Nodes with no
    /// containment path to the reference are absent.
    pub offsets: HashMap<String, i64>,
}

fn span_interval(s: &SpanRecord) -> (i64, i64) {
    (
        s.start_ns as i64,
        s.start_ns.saturating_add(s.dur_ns) as i64,
    )
}

/// Estimates per-node clock offsets from parent/child span containment.
///
/// Every round key contributes one constraint interval per
/// (agent node, other node) pair; pairwise intervals are intersected,
/// then offsets propagate outward from the reference node (the node
/// owning the most `cluster.round` spans, ties broken by name) through
/// a BFS over the constraint graph.
pub fn align_clocks(traces: &[NodeTrace]) -> ClockAlignment {
    // Round spans (parents) and their owners, by ctx key.
    let mut parents: HashMap<(u64, u64), (usize, i64, i64)> = HashMap::new();
    let mut round_counts: HashMap<usize, usize> = HashMap::new();
    for (ti, t) in traces.iter().enumerate() {
        for s in &t.spans {
            if s.name == ROUND_SPAN && s.ctx.is_some() {
                let (lo, hi) = span_interval(s);
                parents.insert(s.ctx.key(), (ti, lo, hi));
                *round_counts.entry(ti).or_default() += 1;
            }
        }
    }
    // Pairwise constraint intervals: offset maps child-node clock into
    // parent-node clock.
    let mut pair: HashMap<(usize, usize), (i64, i64)> = HashMap::new();
    for (ci, t) in traces.iter().enumerate() {
        for s in &t.spans {
            if !s.ctx.is_some() || (s.name != INTRA_SPAN && s.name != FINAL_SPAN) {
                continue;
            }
            let Some(&(pi, a0, a1)) = parents.get(&s.ctx.key()) else {
                continue;
            };
            if pi == ci {
                continue;
            }
            let (b0, b1) = span_interval(s);
            let (lo, hi) = (a0 - b0, a1 - b1);
            let entry = pair.entry((pi, ci)).or_insert((i64::MIN, i64::MAX));
            entry.0 = entry.0.max(lo);
            entry.1 = entry.1.min(hi);
        }
    }
    // Edge offsets (midpoints); an inverted interval — measurement
    // noise beat the containment assumption — still yields its
    // midpoint, the least-wrong single value.
    let mut adj: HashMap<usize, Vec<(usize, i64)>> = HashMap::new();
    for (&(pi, ci), &(lo, hi)) in &pair {
        let mid = lo / 2 + hi / 2 + (lo % 2 + hi % 2) / 2;
        // Each adjacency entry `(next, step)` stores the step mapping
        // *next*'s clock into the current node's clock, so BFS can add
        // it straight onto the current node's reference offset:
        // `t_parent = t_child + mid`.
        adj.entry(pi).or_default().push((ci, mid));
        adj.entry(ci).or_default().push((pi, -mid));
    }
    let Some(&reference) = round_counts.keys().max_by_key(|&&ti| {
        (
            round_counts[&ti],
            std::cmp::Reverse(traces[ti].node.clone()),
        )
    }) else {
        return ClockAlignment::default();
    };
    // BFS: offset(node→reference) composes along the tree.
    let mut offsets: HashMap<usize, i64> = HashMap::new();
    offsets.insert(reference, 0);
    let mut queue = VecDeque::from([reference]);
    while let Some(n) = queue.pop_front() {
        let base = offsets[&n];
        for &(next, step) in adj.get(&n).into_iter().flatten() {
            // `step` maps next's clock into n's clock; add n's own
            // offset to reach the reference domain.
            if let std::collections::hash_map::Entry::Vacant(slot) = offsets.entry(next) {
                slot.insert(base + step);
                queue.push_back(next);
            }
        }
    }
    ClockAlignment {
        reference: traces[reference].node.clone(),
        offsets: offsets
            .into_iter()
            .map(|(ti, off)| (traces[ti].node.clone(), off))
            .collect(),
    }
}

/// Reassembles per-round critical paths from aligned node traces.
/// Rounds appear in key order; a round is `complete` when the request,
/// intra-group and final-committee spans were all observed.
pub fn assemble(traces: &[NodeTrace], align: &ClockAlignment) -> Vec<AssembledRound> {
    struct Parts<'a> {
        round: Option<(&'a str, i64, i64)>,
        intra: Option<(&'a str, i64, i64)>,
        fin: Option<(&'a str, i64, i64)>,
    }
    let mut rounds: BTreeMap<(u64, u64), Parts> = BTreeMap::new();
    for t in traces {
        let off = align.offsets.get(&t.node).copied().unwrap_or(0);
        for s in &t.spans {
            if !s.ctx.is_some() {
                continue;
            }
            let slot = match s.name.as_ref() {
                ROUND_SPAN => 0,
                INTRA_SPAN => 1,
                FINAL_SPAN => 2,
                _ => continue,
            };
            let (lo, hi) = span_interval(s);
            let part = (t.node.as_str(), lo + off, hi + off);
            let entry = rounds.entry(s.ctx.key()).or_insert(Parts {
                round: None,
                intra: None,
                fin: None,
            });
            let field = match slot {
                0 => &mut entry.round,
                1 => &mut entry.intra,
                _ => &mut entry.fin,
            };
            // Keep the widest observation (re-sends repeat a key).
            if field.is_none() || field.is_some_and(|(_, l, h)| h - l < hi - lo) {
                *field = Some(part);
            }
        }
    }
    let mut out = Vec::new();
    for (key, p) in rounds {
        let Some((agent, r0, r1)) = p.round else {
            // Without the agent's span there is no round boundary to
            // hang the legs on; skip.
            continue;
        };
        let mut legs = [0u64; 5];
        let clamp = |ns: i64| ns.max(0) as u64;
        if let Some((_, i0, i1)) = p.intra {
            legs[0] = clamp(i0 - r0);
            legs[1] = clamp(i1 - i0);
            if let Some((_, f0, f1)) = p.fin {
                legs[2] = clamp(f0 - i1);
                legs[3] = clamp(f1 - f0);
                legs[4] = clamp(r1 - f1);
            } else {
                legs[4] = clamp(r1 - i1);
            }
        } else if let Some((_, f0, f1)) = p.fin {
            legs[2] = clamp(f0 - r0);
            legs[3] = clamp(f1 - f0);
            legs[4] = clamp(r1 - f1);
        } else {
            legs[4] = clamp(r1 - r0);
        }
        let complete = p.intra.is_some() && p.fin.is_some();
        out.push(AssembledRound {
            key,
            agent: agent.to_string(),
            leader: p.intra.map(|(n, _, _)| n.to_string()),
            finalizer: p.fin.map(|(n, _, _)| n.to_string()),
            total_ns: clamp(r1 - r0),
            legs,
            complete,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use curb_telemetry::TraceCtx;
    use std::borrow::Cow;

    fn span(name: &'static str, start: u64, end: u64, ctx: TraceCtx) -> SpanRecord {
        SpanRecord {
            name: Cow::Borrowed(name),
            start_ns: start,
            dur_ns: end - start,
            replica: 0,
            seq: 0,
            ctx,
            node: None,
        }
    }

    /// Builds one synthetic three-node round: the agent clock is
    /// truth, `ctrl_off`/`fin_off` skew the other two files.
    fn synthetic(rounds: u64, ctrl_off: i64, fin_off: i64) -> Vec<NodeTrace> {
        let mut agent = Vec::new();
        let mut ctrl = Vec::new();
        let mut fin = Vec::new();
        for i in 0..rounds {
            let ctx = TraceCtx::mint(0, i + 1);
            let base = 1_000_000 + i * 100_000;
            agent.push(span(ROUND_SPAN, base, base + 50_000, ctx));
            let s = |t: u64, off: i64| (t as i64 + off) as u64;
            ctrl.push(span(
                INTRA_SPAN,
                s(base + 5_000, ctrl_off),
                s(base + 20_000, ctrl_off),
                ctx.next_hop(),
            ));
            fin.push(span(
                FINAL_SPAN,
                s(base + 25_000, fin_off),
                s(base + 40_000, fin_off),
                ctx.next_hop().next_hop(),
            ));
        }
        vec![
            NodeTrace {
                node: "agent0".into(),
                spans: agent,
            },
            NodeTrace {
                node: "ctrl1".into(),
                spans: ctrl,
            },
            NodeTrace {
                node: "ctrl2".into(),
                spans: fin,
            },
        ]
    }

    #[test]
    fn offsets_recover_synthetic_skew() {
        // ctrl1's clock runs 7 ms ahead, ctrl2's 3 ms behind.
        let traces = synthetic(20, 7_000_000, -3_000_000);
        let align = align_clocks(&traces);
        assert_eq!(align.reference, "agent0");
        // The containment interval for each pair has width
        // round_len - child_len; the midpoint lands within half that
        // of the true offset.
        let tol = 40_000 / 2 + 1;
        let ctrl1 = align.offsets["ctrl1"];
        let ctrl2 = align.offsets["ctrl2"];
        assert!(
            (ctrl1 + 7_000_000).abs() <= tol,
            "ctrl1 offset {ctrl1} should cancel +7ms skew"
        );
        assert!(
            (ctrl2 - 3_000_000).abs() <= tol,
            "ctrl2 offset {ctrl2} should cancel -3ms skew"
        );
    }

    #[test]
    fn rounds_assemble_completely_across_nodes() {
        let traces = synthetic(5, 2_000_000, -1_000_000);
        let align = align_clocks(&traces);
        let rounds = assemble(&traces, &align);
        assert_eq!(rounds.len(), 5);
        for r in &rounds {
            assert!(r.complete, "all three spans present");
            assert_eq!(r.agent, "agent0");
            assert_eq!(r.leader.as_deref(), Some("ctrl1"));
            assert_eq!(r.finalizer.as_deref(), Some("ctrl2"));
            assert_eq!(r.total_ns, 50_000);
            // Legs tile the round up to alignment error (≤ half the
            // containment-interval width per foreign node).
            let sum: u64 = r.legs.iter().sum();
            let err = sum.abs_diff(r.total_ns);
            assert!(err <= 45_000, "legs {:?} vs total {}", r.legs, r.total_ns);
        }
    }

    #[test]
    fn zero_skew_legs_are_exact() {
        let traces = synthetic(3, 0, 0);
        // Perfectly aligned clocks: skip estimation entirely.
        let align = ClockAlignment {
            reference: "agent0".into(),
            offsets: HashMap::new(),
        };
        let rounds = assemble(&traces, &align);
        for r in &rounds {
            assert_eq!(r.legs, [5_000, 15_000, 5_000, 15_000, 10_000]);
        }
    }

    #[test]
    fn missing_final_span_is_partial() {
        let mut traces = synthetic(2, 0, 0);
        traces[2].spans.clear();
        let align = align_clocks(&traces);
        let rounds = assemble(&traces, &align);
        assert_eq!(rounds.len(), 2);
        for r in &rounds {
            assert!(!r.complete);
            assert!(r.finalizer.is_none());
            assert_eq!(r.legs[3], 0, "no final leg without the span");
        }
    }

    #[test]
    fn untraced_spans_are_ignored() {
        let traces = vec![NodeTrace {
            node: "ctrl0".into(),
            spans: vec![span(ROUND_SPAN, 0, 10, TraceCtx::NONE)],
        }];
        let align = align_clocks(&traces);
        assert!(assemble(&traces, &align).is_empty());
    }
}
