//! tracedump — per-phase latency breakdown of a curb-telemetry trace.
//!
//! Reads a JSONL span trace (any file written with
//! `curb_telemetry::write_jsonl`, such as the per-node files of
//! `edgebench --trace-dir`, alone or concatenated) and prints:
//!
//! 1. a per-phase table — count, p50/p90/p99/max duration in
//!    milliseconds — one row per distinct span name;
//! 2. a coverage line comparing the sum of the consensus phase p50s
//!    (`pre_prepare + prepare + commit + deliver`) against the
//!    end-to-end p50 — the phases tile the `consensus.e2e` span, so
//!    the two should agree closely;
//! 3. the per-seq critical path: the slowest consensus instances by
//!    end-to-end latency, with their phase durations side by side.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p curb-bench --bin tracedump -- \
//!     --trace trace.jsonl [--top 10] [--csv] [--json] \
//!     [--require-phases consensus.pre_prepare,cluster.*]
//! ```
//!
//! `--require-phases` exits non-zero if any named span (or `prefix.*`
//! wildcard) matches nothing in the trace — CI uses it to assert the
//! instrumentation stays wired. `--json` replaces the tables with one
//! machine-readable JSON document.
//!
//! # Distributed mode
//!
//! ```text
//! tracedump --distributed <dir> [--min-rounds N] [--top N] [--json]
//! ```
//!
//! Treats every `*.jsonl` file in `<dir>` as one node's trace (as
//! written by `edgebench --trace-dir`), aligns the nodes' clocks
//! from span containment, stitches spans by trace context into
//! per-round cross-node critical paths and prints each round's five
//! legs (request, intra, handoff, final, reply) plus per-leg p50/p99.
//! `--min-rounds N` exits non-zero unless at least `N` *complete*
//! rounds (all three span kinds observed) were reconstructed.

use curb_bench::distributed::{align_clocks, assemble, load_dir, AssembledRound, LEG_NAMES};
use curb_bench::{arg_flag, arg_value, Json, Table};
use curb_telemetry::{Histogram, SpanRecord};
use std::collections::BTreeMap;

const CONSENSUS_PHASES: [&str; 4] = [
    "consensus.pre_prepare",
    "consensus.prepare",
    "consensus.commit",
    "consensus.deliver",
];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One consensus instance reassembled from its phase spans, keyed by
/// `(replica, seq)`.
#[derive(Default)]
struct Instance {
    e2e_ns: u64,
    phase_ns: [u64; 4],
}

fn main() {
    let top: usize = arg_value("top").and_then(|v| v.parse().ok()).unwrap_or(10);
    let csv = arg_flag("csv");
    let json = arg_flag("json");
    if let Some(dir) = arg_value("distributed") {
        let min_rounds: usize = arg_value("min-rounds")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        run_distributed(&dir, top, csv, json, min_rounds);
        return;
    }
    let path = match arg_value("trace") {
        Some(p) => p,
        None => {
            eprintln!(
                "usage: tracedump --trace <spans.jsonl> [--top N] [--csv] [--json] \
                 [--require-phases a,b.*]\n\
                 \x20      tracedump --distributed <dir> [--min-rounds N] [--top N] [--json]"
            );
            std::process::exit(2);
        }
    };
    let spans: Vec<SpanRecord> = match curb_telemetry::read_jsonl(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tracedump: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    if spans.is_empty() {
        eprintln!("tracedump: {path} holds no spans");
        std::process::exit(1);
    }

    // Per-phase histograms.
    let mut by_name: BTreeMap<&str, Histogram> = BTreeMap::new();
    for s in &spans {
        by_name.entry(s.name.as_ref()).or_default().record(s.dur_ns);
    }

    if let Some(required) = arg_value("require-phases") {
        check_required_phases(&required, &by_name, &path);
    }

    if json {
        let phases: Vec<(String, Json)> = by_name
            .iter()
            .map(|(name, h)| (name.to_string(), hist_json(h)))
            .collect();
        let doc = Json::obj(vec![
            ("trace", Json::str(&path)),
            ("spans", Json::UInt(spans.len() as u64)),
            ("phases", Json::Obj(phases)),
        ]);
        println!("{}", doc.render());
        return;
    }

    println!("tracedump: {} spans from {path}\n", spans.len());
    let mut table = Table::new(
        "phase",
        &["count", "p50 (ms)", "p90 (ms)", "p99 (ms)", "max (ms)"],
    );
    for (name, h) in &by_name {
        table.row(
            name,
            &[
                h.count() as f64,
                ms(h.value_at_quantile(0.50)),
                ms(h.value_at_quantile(0.90)),
                ms(h.value_at_quantile(0.99)),
                ms(h.max()),
            ],
        );
    }
    table.print(csv);

    // Reassemble consensus instances from their phase spans.
    let mut instances: BTreeMap<(i64, i64), Instance> = BTreeMap::new();
    for s in &spans {
        if s.seq < 0 {
            continue;
        }
        let inst = instances.entry((s.replica, s.seq)).or_default();
        if s.name == "consensus.e2e" {
            inst.e2e_ns = inst.e2e_ns.max(s.dur_ns);
        } else if let Some(i) = CONSENSUS_PHASES.iter().position(|p| *p == s.name) {
            inst.phase_ns[i] = inst.phase_ns[i].max(s.dur_ns);
        }
    }

    // Coverage: per instance, the four phases tile the e2e span, so
    // the distribution of phase sums should match the e2e distribution
    // to within histogram bucket error. A larger gap means a phase is
    // missing from (or double-counted in) the instrumentation.
    let mut sum_hist = Histogram::new();
    let mut e2e_hist = Histogram::new();
    for inst in instances.values().filter(|i| i.e2e_ns > 0) {
        sum_hist.record(inst.phase_ns.iter().sum());
        e2e_hist.record(inst.e2e_ns);
    }
    if !e2e_hist.is_empty() {
        let sum_p50 = sum_hist.value_at_quantile(0.50);
        let e2e_p50 = e2e_hist.value_at_quantile(0.50);
        let pct = if e2e_p50 > 0 {
            sum_p50 as f64 / e2e_p50 as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "\nphase-sum p50 {:.3} ms vs e2e p50 {:.3} ms ({pct:.1}% coverage), \
             p99 {:.3} ms vs {:.3} ms",
            ms(sum_p50),
            ms(e2e_p50),
            ms(sum_hist.value_at_quantile(0.99)),
            ms(e2e_hist.value_at_quantile(0.99)),
        );
    }

    // Per-seq critical path: slowest instances by e2e duration.
    let mut slowest: Vec<(&(i64, i64), &Instance)> =
        instances.iter().filter(|(_, i)| i.e2e_ns > 0).collect();
    slowest.sort_by_key(|(_, i)| std::cmp::Reverse(i.e2e_ns));
    slowest.truncate(top);
    if !slowest.is_empty() {
        println!(
            "\ncritical path — {} slowest consensus instances:",
            slowest.len()
        );
        let mut cp = Table::new(
            "replica/seq",
            &[
                "e2e (ms)",
                "pre_prep (ms)",
                "prepare (ms)",
                "commit (ms)",
                "deliver (ms)",
            ],
        );
        for ((replica, seq), inst) in slowest {
            cp.row(
                &format!("r{replica}/s{seq}"),
                &[
                    ms(inst.e2e_ns),
                    ms(inst.phase_ns[0]),
                    ms(inst.phase_ns[1]),
                    ms(inst.phase_ns[2]),
                    ms(inst.phase_ns[3]),
                ],
            );
        }
        cp.print(csv);
    }
}

/// Verifies every required phase name (or `prefix.*` wildcard) matches
/// at least one recorded phase; exits non-zero with a diagnostic
/// naming the misses *and* what was actually present otherwise.
fn check_required_phases(required: &str, by_name: &BTreeMap<&str, Histogram>, path: &str) {
    let missing: Vec<&str> = required
        .split(',')
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .filter(|r| match r.strip_suffix('*') {
            Some(prefix) => !by_name.keys().any(|n| n.starts_with(prefix)),
            None => !by_name.contains_key(r),
        })
        .collect();
    if !missing.is_empty() {
        let available: Vec<&str> = by_name.keys().copied().collect();
        eprintln!(
            "tracedump: required phases matched nothing in {path}: {}\n\
             tracedump: phases present: {}",
            missing.join(", "),
            if available.is_empty() {
                "(none)".to_string()
            } else {
                available.join(", ")
            }
        );
        std::process::exit(1);
    }
}

fn hist_json(h: &Histogram) -> Json {
    Json::obj(vec![
        ("count", Json::UInt(h.count())),
        ("p50_ns", Json::UInt(h.value_at_quantile(0.50))),
        ("p90_ns", Json::UInt(h.value_at_quantile(0.90))),
        ("p99_ns", Json::UInt(h.value_at_quantile(0.99))),
        ("max_ns", Json::UInt(h.max())),
    ])
}

/// `--distributed`: cross-node round reconstruction over a directory
/// of per-node traces.
fn run_distributed(dir: &str, top: usize, csv: bool, json: bool, min_rounds: usize) {
    let traces = match load_dir(dir) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracedump: cannot load trace dir {dir}: {e}");
            std::process::exit(2);
        }
    };
    if traces.is_empty() {
        eprintln!("tracedump: {dir} holds no *.jsonl trace files");
        std::process::exit(1);
    }
    let align = align_clocks(&traces);
    let rounds = assemble(&traces, &align);
    let complete: Vec<&AssembledRound> = rounds.iter().filter(|r| r.complete).collect();

    // Per-leg latency distributions over complete rounds.
    let mut leg_hists: [Histogram; 5] = Default::default();
    let mut total_hist = Histogram::new();
    for r in &complete {
        for (h, &ns) in leg_hists.iter_mut().zip(&r.legs) {
            h.record(ns);
        }
        total_hist.record(r.total_ns);
    }

    if json {
        let legs: Vec<(String, Json)> = LEG_NAMES
            .iter()
            .zip(&leg_hists)
            .map(|(name, h)| (name.to_string(), hist_json(h)))
            .collect();
        let doc = Json::obj(vec![
            ("trace_dir", Json::str(dir)),
            ("nodes", Json::UInt(traces.len() as u64)),
            ("reference_clock", Json::str(&align.reference)),
            ("rounds", Json::UInt(rounds.len() as u64)),
            ("complete_rounds", Json::UInt(complete.len() as u64)),
            ("round_total", hist_json(&total_hist)),
            ("legs", Json::Obj(legs)),
        ]);
        println!("{}", doc.render());
    } else {
        println!(
            "tracedump: {} nodes, {} rounds ({} complete) from {dir}; \
             clocks aligned to {}\n",
            traces.len(),
            rounds.len(),
            complete.len(),
            align.reference,
        );
        if !complete.is_empty() {
            let mut legs = Table::new("leg", &["p50 (ms)", "p99 (ms)", "max (ms)"]);
            for (name, h) in LEG_NAMES.iter().zip(&leg_hists) {
                legs.row(
                    name,
                    &[
                        ms(h.value_at_quantile(0.50)),
                        ms(h.value_at_quantile(0.99)),
                        ms(h.max()),
                    ],
                );
            }
            legs.row(
                "total",
                &[
                    ms(total_hist.value_at_quantile(0.50)),
                    ms(total_hist.value_at_quantile(0.99)),
                    ms(total_hist.max()),
                ],
            );
            legs.print(csv);

            let mut slowest: Vec<&&AssembledRound> = complete.iter().collect();
            slowest.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
            slowest.truncate(top);
            println!(
                "\ncross-node critical path — {} slowest rounds:",
                slowest.len()
            );
            let mut cp = Table::new(
                "round (origin/nonce · path)",
                &[
                    "total (ms)",
                    "request (ms)",
                    "intra (ms)",
                    "handoff (ms)",
                    "final (ms)",
                    "reply (ms)",
                ],
            );
            for r in slowest {
                let path = format!(
                    "{}→{}→{}",
                    r.agent,
                    r.leader.as_deref().unwrap_or("?"),
                    r.finalizer.as_deref().unwrap_or("?"),
                );
                cp.row(
                    &format!("{}/{} · {path}", r.key.0, r.key.1),
                    &[
                        ms(r.total_ns),
                        ms(r.legs[0]),
                        ms(r.legs[1]),
                        ms(r.legs[2]),
                        ms(r.legs[3]),
                        ms(r.legs[4]),
                    ],
                );
            }
            cp.print(csv);
        }
    }

    if complete.len() < min_rounds {
        eprintln!(
            "tracedump: only {} complete cross-node rounds reconstructed \
             (need {min_rounds}); nodes seen: {}",
            complete.len(),
            traces
                .iter()
                .map(|t| t.node.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    }
}
