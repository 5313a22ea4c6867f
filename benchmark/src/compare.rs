//! `curbbench compare <set-a.jsonl> <set-b.jsonl>`: do two sets of
//! runs agree, under the bounds of the metric catalogue?
//!
//! A set is a file of result records, one flat JSON object per line,
//! as `--out` appends them. For every workload × end-to-end metric the
//! medians of the two sets are compared: B is `worse` when its median
//! is worse than A's by more than the metric's bound, `same`
//! otherwise, and `unresolved` when either set's own interquartile
//! spread exceeds the bound, so that no verdict can be read off.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workload::WORKLOADS;
use curb_telemetry::json::{parse_flat_object, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Values per `(workload, metric)`.
type RunSet = BTreeMap<(String, String), Vec<f64>>;

/// Reads one set: every line is a record with a `workload` string and
/// one number per metric.
pub fn parse_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = parse_flat_object(line)
            .ok_or_else(|| format!("line {}: not a flat JSON object", n + 1))?;
        let Some(JsonValue::String(workload)) = record.get("workload") else {
            return Err(format!("line {}: no \"workload\"", n + 1));
        };
        for (key, value) in &record {
            if let JsonValue::Number(v) = value {
                set.entry((workload.clone(), key.clone()))
                    .or_default()
                    .push(*v);
            }
        }
    }
    Ok(set)
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's (or better).
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's own spread exceeds the bound (or a set has under two runs).
    Unresolved,
}

/// Compares the runs of one metric.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(spread_a), Some(spread_b)) = (iqr_share(a), iqr_share(b)) else {
        return Verdict::Unresolved;
    };
    if spread_a.max(spread_b) > metric.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (
        median(a).expect("two or more runs"),
        median(b).expect("two or more runs"),
    );
    let worsening = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if worsening > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// The comparison table, and whether every row is `same`.
pub fn report(a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut out = String::new();
    let mut agree = true;
    let _ = writeln!(
        out,
        "{:<11} {:<17} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound"
    );
    let empty = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (va, vb) = (a.get(&key).unwrap_or(&empty), b.get(&key).unwrap_or(&empty));
            let verdict = judge(m, va, vb);
            agree &= verdict == Verdict::Same;
            let pct = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{:.1}%", v * 100.0));
            let num = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{v:.4}"));
            let _ = writeln!(
                out,
                "{:<11} {:<17} {:>12} {:>12} {:>8} {:>8} {:>6}  {}",
                w.name,
                m.name,
                num(median(va)),
                num(median(vb)),
                pct(iqr_share(va)),
                pct(iqr_share(vb)),
                pct(Some(m.bound)),
                match verdict {
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    (out, agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test metrics with a 5 % bound of their own, whatever the
    /// catalogue's bounds are.
    fn p50() -> &'static EndToEnd {
        &EndToEnd {
            name: "round_p50_ms",
            unit: "ms",
            better: Better::Lower,
            bound: 0.05,
        }
    }

    fn rate() -> &'static EndToEnd {
        &EndToEnd {
            name: "rounds_per_s",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.05,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [20.0, 20.1, 20.2, 19.9, 20.0];
        assert_eq!(
            judge(p50(), &a, &[20.3, 20.2, 20.4, 20.1, 20.3]),
            Verdict::Same
        );
        assert_eq!(
            judge(p50(), &a, &[22.3, 22.2, 22.4, 22.1, 22.3]),
            Verdict::Worse
        );
        // Faster is not worse.
        assert_eq!(
            judge(p50(), &a, &[12.3, 12.2, 12.4, 12.1, 12.3]),
            Verdict::Same
        );
        // A set that disagrees with itself decides nothing.
        assert_eq!(
            judge(p50(), &a, &[18.0, 22.0, 20.0, 25.0, 16.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(p50(), &a, &[20.0]), Verdict::Unresolved);
        // Higher-is-better metrics worsen downwards.
        let r = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(rate(), &r, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate(), &r, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Same
        );
    }

    #[test]
    fn sets_parse_and_report_one_row_per_pair() {
        let line = |w: &str, v: f64| {
            let fields: Vec<String> = END_TO_END
                .iter()
                .map(|m| format!("\"{}\":{}", m.name, v))
                .collect();
            format!("{{\"workload\":\"{w}\",\"seed\":1,{}}}\n", fields.join(","))
        };
        let mut text = String::new();
        for w in &WORKLOADS {
            for v in [10.0, 10.1, 9.9] {
                text.push_str(&line(w.name, v));
            }
        }
        let set = parse_set(&text).unwrap();
        assert_eq!(
            set[&("lan_sat".to_string(), "setup_s".to_string())].len(),
            3
        );
        let (table, agree) = report(&set, &set);
        assert!(agree, "{table}");
        assert_eq!(
            table.lines().count(),
            1 + WORKLOADS.len() * END_TO_END.len()
        );
        assert!(parse_set("{\"seed\":1}\n").is_err());
        assert!(parse_set("not json\n").is_err());
        // A set without a workload's runs cannot vouch for it.
        let (_, agree) = report(&set, &RunSet::new());
        assert!(!agree);
    }
}
