//! The declarative scenario matrix: parse, fingerprint and analyse
//! open-loop edge workloads.
//!
//! A *scenario* is one TOML file naming everything a deterministic
//! `edgebench` run needs — topology, fleet size, a phase schedule of
//! offered rates (ramp, step, burst), a scripted fault timeline and
//! the seed — so the run is a pure function of the file. The bench
//! embeds the file's SHA-256 (`scenario_hash`) and the seeded workload
//! digest in its report: if two runs disagree, the digests say whether
//! the *input* changed or the *system* did, which is what lets every
//! scenario double as a regression test.
//!
//! The parser covers exactly the TOML subset the scenario files use
//! (the build is offline — no toml crate): top-level `key = value`
//! scalars, string/integer/float values, integer arrays, and
//! `[[phases]]` / `[[faults]]` tables. Anything else — an unknown
//! top-level key included — is a parse error, not a silent skip.
//!
//! # File format
//!
//! ```toml
//! name = "partition_heal"        # must match scenario_<name>.json
//! seed = 42                      # the one RNG seed for the whole run
//! topology = "synthetic"        # or "internet2"
//! controllers = 12               # synthetic only (internet2 has 16)
//! switches = 8
//! pinned_groups = 2              # 0 = run the CAP solver
//! capacity = 4
//! byzantine = [3]                # lying controllers (may be empty)
//! request_timeout_ms = 2000
//! drain_ms = 4000                # post-workload drain window
//!
//! [[phases]]                     # offered-load schedule, in order
//! duration_ms = 1000
//! rate_hz = 50.0
//! process = "poisson"           # or "fixed"
//!
//! [[faults]]                     # scripted timeline (offsets from start)
//! at_ms = 500
//! action = "partition"          # partition | heal | isolate | rejoin
//! side = [0, 1, 2, 3]            #   | slow_link
//!
//! [[faults]]
//! at_ms = 1500
//! action = "heal"
//! ```

use crate::report::Json;
use curb_cluster::{ArrivalProcess, FaultAction, FaultEvent, PhaseSpec};
use curb_crypto::sha256;

/// Which topology family a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The paper's Internet2 map (16 controller sites), trimmed to the
    /// scenario's switch count.
    Internet2,
    /// A seeded synthetic edge topology (`curb_graph::synthetic`).
    Synthetic,
}

/// One parsed scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name; the result lands in `results/scenario_<name>.json`.
    pub name: String,
    /// The single seed every random decision in the run derives from.
    pub seed: u64,
    /// Topology family.
    pub topology: Topology,
    /// Controller count (synthetic only; internet2 fixes it at 16).
    pub controllers: usize,
    /// Switch (s-agent) fleet size.
    pub switches: usize,
    /// Pinned group count; 0 runs the CAP solver.
    pub pinned_groups: usize,
    /// Per-controller capacity for the assignment.
    pub capacity: u32,
    /// Lying controllers.
    pub byzantine: Vec<usize>,
    /// Agent request timeout (drives the audit), in milliseconds.
    pub request_timeout_ms: u64,
    /// How long after the last scheduled arrival the bench keeps
    /// collecting accepts before declaring the rest missed.
    pub drain_ms: u64,
    /// The offered-load schedule, in order.
    pub phases: Vec<PhaseSpec>,
    /// The scripted fault timeline.
    pub faults: Vec<FaultEvent>,
    /// SHA-256 of the scenario file text.
    pub hash: sha256::Digest,
}

impl Scenario {
    /// Parses a scenario file.
    ///
    /// # Errors
    ///
    /// A message naming the offending line for anything outside the
    /// documented subset, a missing required key, or a value that
    /// fails validation.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut top = Table::default();
        let mut phases: Vec<Table> = Vec::new();
        let mut faults: Vec<Table> = Vec::new();
        // Which table `key = value` lines currently land in.
        let mut section = Section::Top;
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| format!("line {}: {msg}", idx + 1);
            if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                section = match header.trim() {
                    "phases" => {
                        phases.push(Table::default());
                        Section::Phase
                    }
                    "faults" => {
                        faults.push(Table::default());
                        Section::Fault
                    }
                    other => return Err(at(format!("unknown table [[{other}]]"))),
                };
                continue;
            }
            if line.starts_with('[') {
                return Err(at(format!(
                    "only [[phases]] and [[faults]] tables are supported, got {line:?}"
                )));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected `key = value`, got {line:?}")))?;
            let value = Value::parse(value.trim()).map_err(&at)?;
            let entry = (key.trim().to_string(), value);
            match section {
                Section::Top => top.0.push(entry),
                Section::Phase => phases.last_mut().expect("pushed on header").0.push(entry),
                Section::Fault => faults.last_mut().expect("pushed on header").0.push(entry),
            }
        }

        top.reject_unknown(&[
            "name",
            "seed",
            "topology",
            "controllers",
            "switches",
            "pinned_groups",
            "capacity",
            "byzantine",
            "request_timeout_ms",
            "drain_ms",
        ])?;
        let topology = match top.require_str("topology")?.as_str() {
            "internet2" => Topology::Internet2,
            "synthetic" => Topology::Synthetic,
            other => return Err(format!("unknown topology {other:?}")),
        };
        let scenario = Scenario {
            name: top.require_str("name")?,
            seed: top.require_u64("seed")?,
            topology,
            controllers: top.get_u64("controllers")?.unwrap_or(16) as usize,
            switches: top.require_u64("switches")? as usize,
            pinned_groups: top.get_u64("pinned_groups")?.unwrap_or(0) as usize,
            capacity: top.get_u64("capacity")?.unwrap_or(1) as u32,
            byzantine: top
                .get_u64_array("byzantine")?
                .unwrap_or_default()
                .into_iter()
                .map(|b| b as usize)
                .collect(),
            request_timeout_ms: top.get_u64("request_timeout_ms")?.unwrap_or(2_000),
            drain_ms: top.get_u64("drain_ms")?.unwrap_or(4_000),
            phases: phases
                .into_iter()
                .enumerate()
                .map(|(i, t)| parse_phase(i, t))
                .collect::<Result<_, _>>()?,
            faults: faults
                .into_iter()
                .enumerate()
                .map(|(i, t)| parse_fault(i, t))
                .collect::<Result<_, _>>()?,
            hash: sha256::digest(text.as_bytes()),
        };
        scenario.validate()?;
        Ok(scenario)
    }

    fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!(
                "name {:?} must be non-empty [A-Za-z0-9_-] (it names the result file)",
                self.name
            ));
        }
        if self.phases.is_empty() {
            return Err("a scenario needs at least one [[phases]] entry".into());
        }
        if self.switches == 0 {
            return Err("switches must be positive".into());
        }
        if self.topology == Topology::Internet2 && self.controllers != 16 {
            return Err("internet2 has exactly 16 controller sites".into());
        }
        for b in &self.byzantine {
            if *b >= self.controllers {
                return Err(format!("byzantine controller {b} out of range"));
            }
        }
        for f in &self.faults {
            let in_range = |n: usize| n < self.controllers;
            let ok = match &f.action {
                FaultAction::Partition { side } => {
                    !side.is_empty() && side.iter().all(|&n| in_range(n))
                }
                FaultAction::Isolate { node } | FaultAction::Rejoin { node } => in_range(*node),
                FaultAction::SlowLink { a, b, .. } => a != b && in_range(*a) && in_range(*b),
                FaultAction::Heal => true,
            };
            if !ok {
                return Err(format!("fault at {}ms references invalid nodes", f.at_ms));
            }
        }
        Ok(())
    }

    /// Total scheduled workload length (sum of phase durations).
    pub fn workload_ms(&self) -> u64 {
        self.phases.iter().map(|p| p.duration_ms).sum()
    }
}

fn parse_phase(idx: usize, t: Table) -> Result<PhaseSpec, String> {
    let wrap = |e: String| format!("[[phases]] #{}: {e}", idx + 1);
    let process: ArrivalProcess = t
        .get_str("process")
        .map_err(wrap)?
        .unwrap_or_else(|| "poisson".into())
        .parse()
        .map_err(wrap)?;
    let spec = PhaseSpec {
        duration_ms: t.require_u64("duration_ms").map_err(wrap)?,
        rate_hz: t.require_f64("rate_hz").map_err(wrap)?,
        process,
    };
    if spec.duration_ms == 0 || !(spec.rate_hz.is_finite() && spec.rate_hz > 0.0) {
        return Err(wrap("duration_ms and rate_hz must be positive".into()));
    }
    Ok(spec)
}

fn parse_fault(idx: usize, t: Table) -> Result<FaultEvent, String> {
    let wrap = |e: String| format!("[[faults]] #{}: {e}", idx + 1);
    let at_ms = t.require_u64("at_ms").map_err(wrap)?;
    let action = match t.require_str("action").map_err(wrap)?.as_str() {
        "partition" => FaultAction::Partition {
            side: t
                .get_u64_array("side")
                .map_err(wrap)?
                .ok_or_else(|| wrap("partition needs `side = [...]`".into()))?
                .into_iter()
                .map(|n| n as usize)
                .collect(),
        },
        "isolate" => FaultAction::Isolate {
            node: t.require_u64("node").map_err(wrap)? as usize,
        },
        "rejoin" => FaultAction::Rejoin {
            node: t.require_u64("node").map_err(wrap)? as usize,
        },
        "slow_link" => FaultAction::SlowLink {
            a: t.require_u64("a").map_err(wrap)? as usize,
            b: t.require_u64("b").map_err(wrap)? as usize,
            delay_ms: t.require_u64("delay_ms").map_err(wrap)?,
        },
        "heal" => FaultAction::Heal,
        other => return Err(wrap(format!("unknown action {other:?}"))),
    };
    Ok(FaultEvent { at_ms, action })
}

enum Section {
    Top,
    Phase,
    Fault,
}

/// An ordered `key = value` bag for one table of the file.
#[derive(Default)]
struct Table(Vec<(String, Value)>);

impl Table {
    /// Errors on the first key outside `known`.
    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown key {k:?}")),
            None => Ok(()),
        }
    }

    fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_str(&self, key: &str) -> Result<Option<String>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(format!("{key} must be a string")),
        }
    }

    fn require_str(&self, key: &str) -> Result<String, String> {
        self.get_str(key)?.ok_or_else(|| format!("missing {key}"))
    }

    fn get_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(Value::Int(i)) => Ok(Some(*i)),
            Some(_) => Err(format!("{key} must be an integer")),
        }
    }

    fn require_u64(&self, key: &str) -> Result<u64, String> {
        self.get_u64(key)?.ok_or_else(|| format!("missing {key}"))
    }

    fn require_f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            None => Err(format!("missing {key}")),
            Some(Value::Int(i)) => Ok(*i as f64),
            Some(Value::Float(f)) => Ok(*f),
            Some(_) => Err(format!("{key} must be a number")),
        }
    }

    fn get_u64_array(&self, key: &str) -> Result<Option<Vec<u64>>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(Value::IntArr(v)) => Ok(Some(v.clone())),
            Some(_) => Err(format!("{key} must be an integer array")),
        }
    }
}

/// A scalar in the supported TOML subset.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(u64),
    Float(f64),
    IntArr(Vec<u64>),
}

impl Value {
    fn parse(text: &str) -> Result<Value, String> {
        if let Some(inner) = text.strip_prefix('"') {
            let inner = inner
                .strip_suffix('"')
                .ok_or_else(|| format!("unterminated string {text:?}"))?;
            if inner.contains('"') || inner.contains('\\') {
                return Err(format!("escapes are not supported in {text:?}"));
            }
            return Ok(Value::Str(inner.to_string()));
        }
        if let Some(inner) = text.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| format!("unterminated array {text:?}"))?;
            let items: Result<Vec<u64>, _> = inner
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| s.parse::<u64>().map_err(|_| s.to_string()))
                .collect();
            return match items {
                Ok(v) => Ok(Value::IntArr(v)),
                Err(bad) => Err(format!("array element {bad:?} is not an integer")),
            };
        }
        if let Ok(i) = text.parse::<u64>() {
            return Ok(Value::Int(i));
        }
        if let Ok(f) = text.parse::<f64>() {
            if f.is_finite() {
                return Ok(Value::Float(f));
            }
        }
        Err(format!("unsupported value {text:?}"))
    }
}

/// Drops a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// One phase's measured outcome, the unit of the load curve.
#[derive(Debug, Clone, Copy)]
pub struct PhasePoint {
    /// Arrivals scheduled in the phase window, as a rate.
    pub offered_hz: f64,
    /// Accepts observed during the phase window, as a rate.
    pub delivered_hz: f64,
}

/// The saturation knee of a load curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knee {
    /// Index of the knee phase: the highest-offered phase still
    /// delivering at least [`KNEE_RATIO`] of its offered load.
    pub phase: usize,
    /// That phase's offered rate — the measured capacity bound.
    pub offered_hz: f64,
    /// That phase's delivered rate.
    pub delivered_hz: f64,
    /// Whether any phase fell below the ratio, i.e. whether the sweep
    /// actually reached saturation (a curve that never bends has its
    /// knee pinned at the last phase and `saturated = false`).
    pub saturated: bool,
}

/// A phase "keeps up" while delivered ≥ this fraction of offered.
pub const KNEE_RATIO: f64 = 0.9;

/// Finds the saturation knee of a per-phase load curve: the
/// highest-offered phase whose delivered throughput is still at least
/// [`KNEE_RATIO`] of its offered load. Returns `None` for an empty
/// curve or one where no phase kept up at all.
pub fn detect_knee(points: &[PhasePoint]) -> Option<Knee> {
    let keeping_up =
        |p: &PhasePoint| p.offered_hz > 0.0 && p.delivered_hz >= KNEE_RATIO * p.offered_hz;
    let saturated = points.iter().any(|p| p.offered_hz > 0.0 && !keeping_up(p));
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| keeping_up(p))
        .max_by(|(_, a), (_, b)| {
            a.offered_hz
                .partial_cmp(&b.offered_hz)
                .expect("finite rates")
        })
        .map(|(phase, p)| Knee {
            phase,
            offered_hz: p.offered_hz,
            delivered_hz: p.delivered_hz,
            saturated,
        })
}

/// Renders a knee as a JSON fragment for the scenario report.
pub fn knee_json(knee: Option<&Knee>) -> Json {
    match knee {
        None => Json::Null,
        Some(k) => Json::obj(vec![
            ("phase", Json::UInt(k.phase as u64)),
            ("offered_hz", Json::Fixed(k.offered_hz, 2)),
            ("delivered_hz", Json::Fixed(k.delivered_hz, 2)),
            ("saturated", Json::Bool(k.saturated)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a full-feature scenario
name = "partition_heal"   # trailing comment
seed = 42
topology = "synthetic"
controllers = 12
switches = 8
pinned_groups = 2
capacity = 4
byzantine = [3]

[[phases]]
duration_ms = 1000
rate_hz = 50.0
process = "poisson"

[[phases]]
duration_ms = 500
rate_hz = 200
process = "fixed"

[[faults]]
at_ms = 300
action = "partition"
side = [0, 1, 2, 3]

[[faults]]
at_ms = 900
action = "heal"

[[faults]]
at_ms = 1100
action = "slow_link"
a = 0
b = 4
delay_ms = 20
"#;

    #[test]
    fn parses_full_scenario() {
        let s = Scenario::parse(SAMPLE).expect("parses");
        assert_eq!(s.name, "partition_heal");
        assert_eq!(s.seed, 42);
        assert_eq!(s.topology, Topology::Synthetic);
        assert_eq!((s.controllers, s.switches), (12, 8));
        assert_eq!(s.pinned_groups, 2);
        assert_eq!(s.byzantine, vec![3]);
        assert_eq!(s.request_timeout_ms, 2_000, "default applies");
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phases[0].process, ArrivalProcess::Poisson);
        assert_eq!(s.phases[1].rate_hz, 200.0);
        assert_eq!(s.phases[1].process, ArrivalProcess::Fixed);
        assert_eq!(s.faults.len(), 3);
        assert_eq!(
            s.faults[0].action,
            FaultAction::Partition {
                side: vec![0, 1, 2, 3]
            }
        );
        assert_eq!(s.faults[1].action, FaultAction::Heal);
        assert_eq!(
            s.faults[2].action,
            FaultAction::SlowLink {
                a: 0,
                b: 4,
                delay_ms: 20
            }
        );
        assert_eq!(s.workload_ms(), 1500);
        assert_eq!(s.hash, sha256::digest(SAMPLE.as_bytes()));
    }

    #[test]
    fn rejects_malformed_input() {
        for (text, needle) in [
            ("switches = 4", "missing topology"),
            (
                "name = \"x\"\nseed = 1\ntopology = \"mesh\"\nswitches = 1",
                "unknown topology",
            ),
            (
                "name = \"x\"\nseed = 1\ntopology = \"synthetic\"\nswitches = 1",
                "at least one",
            ),
            ("[[rates]]", "unknown table"),
            ("[server]", "only [[phases]]"),
            ("name \"x\"", "key = value"),
            ("name = \"x", "unterminated"),
            ("seed = [1, b]", "not an integer"),
            ("shards = 2\nswitches = 4", "unknown key \"shards\""),
        ] {
            let err = Scenario::parse(text).expect_err(text);
            assert!(err.contains(needle), "{text:?} → {err:?}");
        }
    }

    #[test]
    fn rejects_out_of_range_references() {
        let bad_byz = SAMPLE.replace("byzantine = [3]", "byzantine = [99]");
        assert!(Scenario::parse(&bad_byz)
            .expect_err("liar out of range")
            .contains("out of range"));
        let bad_fault = SAMPLE.replace("side = [0, 1, 2, 3]", "side = [0, 40]");
        assert!(Scenario::parse(&bad_fault)
            .expect_err("fault out of range")
            .contains("invalid nodes"));
    }

    #[test]
    fn knee_is_last_keeping_up_phase() {
        let curve = |pairs: &[(f64, f64)]| {
            pairs
                .iter()
                .map(|&(o, d)| PhasePoint {
                    offered_hz: o,
                    delivered_hz: d,
                })
                .collect::<Vec<_>>()
        };
        // Ramp that saturates: 400 Hz delivers only half.
        let knee = detect_knee(&curve(&[(100.0, 99.0), (200.0, 195.0), (400.0, 200.0)]))
            .expect("has a knee");
        assert_eq!(knee.phase, 1);
        assert!(knee.saturated);
        assert_eq!(knee.offered_hz, 200.0);
        // Never saturates: knee pins to the highest offered phase.
        let knee = detect_knee(&curve(&[(100.0, 100.0), (200.0, 199.0)])).expect("has a knee");
        assert_eq!(knee.phase, 1);
        assert!(!knee.saturated);
        // Nothing keeps up.
        assert_eq!(detect_knee(&curve(&[(100.0, 10.0)])), None);
        assert_eq!(detect_knee(&[]), None);
    }
}
