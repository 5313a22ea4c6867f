//! edgebench — open-loop edge workload generator over the scenario
//! matrix.
//!
//! Where a closed loop makes a switch's next PACKET_IN wait for its
//! previous accept, edgebench is the **open-loop** harness the
//! paper's edge claims need: a seeded arrival process
//! (Poisson or fixed-rate, per phase) schedules every PACKET_IN up
//! front, the s-agent fleet injects them at their scheduled instants
//! whether or not earlier rounds finished, and the report is the
//! resulting offered-load vs delivered-throughput vs latency curve —
//! per phase, with the saturation knee detected from the curve.
//!
//! The whole run is declared by one scenario file (see
//! `curb_bench::scenario` for the format): topology, fleet size, the
//! phase schedule (ramp/step/burst), a scripted fault timeline
//! (partition, controller isolation, slow links, byzantine
//! controllers) and the seed. Every random decision — inter-arrival
//! gaps, switch choice, dst hosts — derives from that seed, so a
//! same-seed rerun replays the identical workload and must reproduce
//! the identical commit trace: the report embeds `scenario_hash`,
//! `workload_digest` and `trace_digest`, and CI diffs them across
//! reruns.
//!
//! The exit code is the verdict: after writing the report, edgebench
//! exits 1 if any gate failed — a missed or lost request, no load
//! phase that kept up, a scripted partition that dropped nothing, or
//! a lying controller that was never flagged, reassigned and rotated
//! out (see `gate_failures`).
//!
//! Results land in `<out-dir>/scenario_<name>.json` (the
//! `curb_bench::report` envelope). With `--trace-dir <dir>` the run's
//! spans are also split by recording node into `<dir>/<node>.jsonl`
//! (`ctrl0.jsonl`, `agent3.jsonl`, …), the layout `tracedump
//! --distributed <dir>` stitches back into cross-node rounds.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p curb-bench --bin edgebench -- \
//!     --scenario scenarios/baseline_internet2.toml \
//!     [--out-dir results] [--deadline-s 120] [--trace-dir traces/]
//! ```

use curb_bench::report::{self, Json};
use curb_bench::scenario::{detect_knee, knee_json, Knee, PhasePoint, Scenario, Topology};
use curb_bench::spans::{phase_histograms, phases_json, write_node_traces};
use curb_bench::{arg_value, KNEE_RATIO};
use curb_cluster::{
    bootstrap_pinned, build_schedule, schedule_digest, spawn_fault_script, spawn_injector,
    AgentEvent, Arrival, Cluster, ClusterConfig, FaultAction, NodeBehavior,
};
use curb_core::ConfigData;
use curb_crypto::rng::DetRng;
use curb_crypto::sha256::Sha256;
use curb_graph::{internet2, synthetic};
use curb_telemetry::{Histogram, SpanScope};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// What one scenario run measured.
struct Outcome {
    groups: usize,
    elapsed_s: f64,
    /// Per phase: scheduled arrivals.
    offered: Vec<u64>,
    /// Per phase: accepted flow-rule configs attributed to it.
    delivered: Vec<u64>,
    /// Per phase: request → accept latency.
    latency: Vec<Histogram>,
    /// Flow-rule accepts whose attributed request time fell past the
    /// workload (possible for retried requests re-raised in the drain).
    late: u64,
    byzantine_flagged: u64,
    reass_issued: u64,
    epochs_adopted: u64,
    max_height: u64,
    max_epoch: u64,
    faults_dropped: u64,
    faults_delayed: u64,
    /// SHA-256 over the deduped, sorted set of accepted
    /// `(switch, dst_host, config)` triples — the deterministic commit
    /// trace a same-seed rerun must reproduce.
    trace_digest: curb_crypto::sha256::Digest,
}

/// The phase (by schedule time) a request issued at `offset_ns` falls
/// into; requests past the workload end return `None`.
fn phase_of(boundaries_ns: &[u64], offset_ns: u64) -> Option<usize> {
    boundaries_ns
        .windows(2)
        .position(|w| (w[0]..w[1]).contains(&offset_ns))
}

fn run_scenario(scenario: &Scenario, deadline: Duration) -> Outcome {
    let topo = match scenario.topology {
        Topology::Internet2 => internet2().with_switch_count(scenario.switches),
        Topology::Synthetic => synthetic(scenario.controllers, scenario.switches, scenario.seed),
    };
    let mut cfg = ClusterConfig::default();
    cfg.curb.seed = scenario.seed;
    cfg.curb.controller_capacity = scenario.capacity;
    // The bench measures the runtime, not the CAP solver: open the
    // delay bounds so any (topology, fleet) combination is feasible.
    cfg.curb.max_cs_delay_ms = 1e9;
    cfg.curb.max_cc_delay_ms = None;
    cfg.request_timeout = Duration::from_millis(scenario.request_timeout_ms);
    if !scenario.byzantine.is_empty() {
        cfg.behaviors = vec![NodeBehavior::Honest; scenario.controllers];
        for &liar in &scenario.byzantine {
            cfg.behaviors[liar] = NodeBehavior::Lying;
        }
    }

    // The workload is fixed before the cluster exists: one seeded RNG
    // produces the entire schedule.
    let mut rng = DetRng::new(scenario.seed);
    let schedule: Vec<Arrival> = build_schedule(&scenario.phases, scenario.switches, &mut rng);
    let mut offered = vec![0u64; scenario.phases.len()];
    for a in &schedule {
        offered[a.phase] += 1;
    }
    let mut boundaries_ns: Vec<u64> = vec![0];
    for p in &scenario.phases {
        boundaries_ns.push(boundaries_ns.last().unwrap() + p.duration_ms * 1_000_000);
    }

    let cluster = if scenario.pinned_groups > 0 {
        let boot = bootstrap_pinned(&topo, cfg.curb.clone(), scenario.pinned_groups)
            .expect("pinned bootstrap");
        Cluster::launch_with(boot, &cfg)
    } else {
        Cluster::launch(&topo, cfg).expect("cluster bootstrap")
    };
    let groups = cluster.epoch0.group_count();
    let plane = cluster.fault_plane();
    eprintln!(
        "edgebench: scenario {:?} — {} controllers in {groups} group(s), {} s-agent(s), \
         {} phases / {} arrivals / {} fault(s), seed {} …",
        scenario.name,
        scenario.controllers,
        scenario.switches,
        scenario.phases.len(),
        schedule.len(),
        scenario.faults.len(),
        scenario.seed,
    );

    let start = Instant::now();
    let injector = spawn_injector(cluster.injectors(), schedule, start);
    let script = spawn_fault_script(plane.clone(), scenario.faults.clone(), start);

    // Collect until the drain window closes; everything still missing
    // then is a missed commit.
    let workload_end = start + Duration::from_millis(scenario.workload_ms());
    let collect_until =
        (workload_end + Duration::from_millis(scenario.drain_ms)).min(start + deadline);
    let mut delivered = vec![0u64; scenario.phases.len()];
    let mut latency: Vec<Histogram> = scenario.phases.iter().map(|_| Histogram::new()).collect();
    let mut late = 0u64;
    let mut byzantine_flagged = 0u64;
    let mut reass_issued = 0u64;
    let mut epochs_adopted = 0u64;
    // The deterministic commit trace: retries and fault-era duplicates
    // dedup away, event-order nondeterminism sorts away.
    let mut trace: BTreeSet<(usize, Vec<u8>)> = BTreeSet::new();
    loop {
        let now = Instant::now();
        if now >= collect_until {
            break;
        }
        let Ok((switch, event)) = cluster.events.recv_timeout(collect_until - now) else {
            continue;
        };
        match event {
            AgentEvent::Accepted {
                config, latency_ns, ..
            } => {
                // Only flow-rule rounds are workload deliveries;
                // RE-ASS / announcement rounds are control traffic.
                if !matches!(config, ConfigData::FlowRules(_)) {
                    continue;
                }
                // Attribute the accept to the phase its *request* was
                // issued in: accept instant minus the agent-measured
                // round latency.
                let offset_ns = (Instant::now() - start)
                    .as_nanos()
                    .saturating_sub(latency_ns as u128) as u64;
                match phase_of(&boundaries_ns, offset_ns) {
                    Some(p) => {
                        delivered[p] += 1;
                        latency[p].record(latency_ns);
                    }
                    None => late += 1,
                }
                trace.insert((switch.0, config.encode()));
            }
            AgentEvent::Byzantine { .. } => byzantine_flagged += 1,
            AgentEvent::ReassIssued { .. } => reass_issued += 1,
            AgentEvent::EpochAdopted { .. } => epochs_adopted += 1,
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    // Heal before shutdown so no node is left unreachable mid-join,
    // then stop the driver threads and the cluster.
    plane.heal_all();
    let _ = injector.join();
    let _ = script.join();
    let faults_dropped = plane.dropped();
    let faults_delayed = plane.delayed();
    let max_height = cluster.max_height();
    let max_epoch = cluster.max_epoch();
    cluster.shutdown();

    let mut h = Sha256::new();
    for (switch, config) in &trace {
        h.update(&(*switch as u64).to_be_bytes());
        h.update(&(config.len() as u64).to_be_bytes());
        h.update(config);
    }

    Outcome {
        groups,
        elapsed_s,
        offered,
        delivered,
        latency,
        late,
        byzantine_flagged,
        reass_issued,
        epochs_adopted,
        max_height,
        max_epoch,
        faults_dropped,
        faults_delayed,
        trace_digest: h.finalize(),
    }
}

fn main() {
    let scenario_path = arg_value("scenario").unwrap_or_else(|| {
        eprintln!("edgebench: --scenario <file.toml> is required");
        std::process::exit(2);
    });
    let out_dir = arg_value("out-dir").unwrap_or_else(|| "results".to_string());
    let trace_dir = arg_value("trace-dir");
    let deadline_s: u64 = arg_value("deadline-s")
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);

    let text = std::fs::read_to_string(&scenario_path).unwrap_or_else(|e| {
        eprintln!("edgebench: cannot read {scenario_path}: {e}");
        std::process::exit(2);
    });
    let scenario = Scenario::parse(&text).unwrap_or_else(|e| {
        eprintln!("edgebench: {scenario_path}: {e}");
        std::process::exit(2);
    });

    // The workload digest is a pure function of the scenario — compute
    // it exactly the way the run will.
    let mut rng = DetRng::new(scenario.seed);
    let workload_digest = schedule_digest(&build_schedule(
        &scenario.phases,
        scenario.switches,
        &mut rng,
    ));

    // Span recording scoped to this scenario: everything the run emits
    // (and nothing from before) lands in `phases_ns`. The cluster's
    // worker threads are all joined inside `run_scenario`, so their
    // buffers are flushed by the time the scope ends.
    let scope = SpanScope::begin();
    let outcome = run_scenario(&scenario, Duration::from_secs(deadline_s));
    let spans = scope.end();
    if let Some(dir) = &trace_dir {
        match write_node_traces(dir, &spans) {
            Ok((files, written)) => {
                eprintln!("edgebench: {written} spans split across {files} per-node files in {dir}")
            }
            Err(e) => eprintln!("warning: could not write per-node traces to {dir}: {e}"),
        }
    }
    let span_phases = phase_histograms(&spans);

    let offered_total: u64 = outcome.offered.iter().sum();
    let delivered_total: u64 = outcome.delivered.iter().sum::<u64>() + outcome.late;
    let missed = offered_total.saturating_sub(delivered_total);

    let points: Vec<PhasePoint> = scenario
        .phases
        .iter()
        .zip(outcome.offered.iter().zip(&outcome.delivered))
        .map(|(spec, (&o, &d))| {
            let secs = spec.duration_ms as f64 / 1e3;
            PhasePoint {
                offered_hz: o as f64 / secs,
                delivered_hz: d as f64 / secs,
            }
        })
        .collect();
    let knee = detect_knee(&points);

    let ms = |ns: u64| ns as f64 / 1e6;
    let curve: Vec<Json> = scenario
        .phases
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let h = &outcome.latency[i];
            Json::obj(vec![
                ("phase", Json::UInt(i as u64)),
                (
                    "process",
                    Json::str(format!("{:?}", spec.process).to_lowercase()),
                ),
                ("duration_ms", Json::UInt(spec.duration_ms)),
                ("rate_hz", Json::Fixed(spec.rate_hz, 2)),
                ("offered", Json::UInt(outcome.offered[i])),
                ("offered_hz", Json::Fixed(points[i].offered_hz, 2)),
                ("delivered", Json::UInt(outcome.delivered[i])),
                ("delivered_hz", Json::Fixed(points[i].delivered_hz, 2)),
                (
                    "latency_ms",
                    Json::obj(vec![
                        ("p50", Json::Fixed(ms(h.value_at_quantile(0.50)), 3)),
                        ("p99", Json::Fixed(ms(h.value_at_quantile(0.99)), 3)),
                        ("p999", Json::Fixed(ms(h.value_at_quantile(0.999)), 3)),
                        ("max", Json::Fixed(ms(h.max()), 3)),
                    ]),
                ),
            ])
        })
        .collect();

    let report = report::envelope(
        "edgebench",
        outcome.groups,
        vec![
            ("scenario", Json::str(scenario.name.clone())),
            ("seed", Json::UInt(scenario.seed)),
            ("scenario_hash", Json::str(scenario.hash.to_hex())),
            ("workload_digest", Json::str(workload_digest.to_hex())),
            ("trace_digest", Json::str(outcome.trace_digest.to_hex())),
            (
                "topology",
                Json::str(match scenario.topology {
                    Topology::Internet2 => "internet2",
                    Topology::Synthetic => "synthetic",
                }),
            ),
            ("controllers", Json::UInt(scenario.controllers as u64)),
            ("switches", Json::UInt(scenario.switches as u64)),
            ("pinned_groups", Json::UInt(scenario.pinned_groups as u64)),
            ("controller_capacity", Json::UInt(scenario.capacity as u64)),
            (
                "byzantine",
                Json::Arr(
                    scenario
                        .byzantine
                        .iter()
                        .map(|&b| Json::UInt(b as u64))
                        .collect(),
                ),
            ),
            ("workload_ms", Json::UInt(scenario.workload_ms())),
            ("drain_ms", Json::UInt(scenario.drain_ms)),
            ("elapsed_s", Json::Fixed(outcome.elapsed_s, 4)),
            ("offered_total", Json::UInt(offered_total)),
            ("delivered_total", Json::UInt(delivered_total)),
            ("delivered_late", Json::UInt(outcome.late)),
            ("missed", Json::UInt(missed)),
            ("knee_ratio", Json::Fixed(KNEE_RATIO, 2)),
            ("knee", knee_json(knee.as_ref())),
            ("byzantine_flagged", Json::UInt(outcome.byzantine_flagged)),
            ("reass_issued", Json::UInt(outcome.reass_issued)),
            ("epochs_adopted", Json::UInt(outcome.epochs_adopted)),
            ("max_height", Json::UInt(outcome.max_height)),
            ("max_epoch", Json::UInt(outcome.max_epoch)),
            ("faults_dropped", Json::UInt(outcome.faults_dropped)),
            ("faults_delayed", Json::UInt(outcome.faults_delayed)),
            ("load_curve", Json::Arr(curve)),
            ("phases_ns", phases_json(&span_phases)),
        ],
    );

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("edgebench: cannot create {out_dir}: {e}");
        std::process::exit(1);
    }
    let out_path = format!("{out_dir}/scenario_{}.json", scenario.name);
    report::emit("edgebench", &out_path, &report);

    let failures = gate_failures(&scenario, &outcome, knee.as_ref());
    for failure in &failures {
        eprintln!("edgebench: {}: gate failed: {failure}", scenario.name);
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// The correctness gates of one run, as failure messages (empty when
/// the run passed). Every scenario must deliver exactly what it
/// offered, with load in every phase and a knee phase that kept up; a
/// scripted partition must have dropped frames at the transport; a
/// lying controller must be flagged, reassigned and rotated out.
fn gate_failures(scenario: &Scenario, outcome: &Outcome, knee: Option<&Knee>) -> Vec<String> {
    let mut failures = Vec::new();
    let offered: u64 = outcome.offered.iter().sum();
    let delivered: u64 = outcome.delivered.iter().sum::<u64>() + outcome.late;
    if delivered < offered {
        failures.push(format!("missed {} of {offered}", offered - delivered));
    }
    if delivered != offered {
        failures.push(format!("delivered {delivered} != offered {offered}"));
    }
    if let Some(phase) = outcome.offered.iter().position(|&o| o == 0) {
        failures.push(format!("phase {phase} offered no load"));
    }
    match knee {
        None => failures.push("no knee detected: no phase kept up".into()),
        Some(k) if k.delivered_hz < KNEE_RATIO * k.offered_hz => failures.push(format!(
            "knee phase {} delivered {:.2} of {:.2} Hz",
            k.phase, k.delivered_hz, k.offered_hz
        )),
        Some(_) => {}
    }
    let partitioned = scenario
        .faults
        .iter()
        .any(|f| matches!(f.action, FaultAction::Partition { .. }));
    if partitioned && outcome.faults_dropped == 0 {
        failures.push("the partition dropped no frames at the transport".into());
    }
    if !scenario.byzantine.is_empty() {
        for (what, count) in [
            ("byzantine_flagged", outcome.byzantine_flagged),
            ("reass_issued", outcome.reass_issued),
            ("max_epoch", outcome.max_epoch),
        ] {
            if count == 0 {
                failures.push(format!("a lying controller ran, but {what} is 0"));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(offered: Vec<u64>, delivered: Vec<u64>) -> Outcome {
        Outcome {
            groups: 1,
            elapsed_s: 1.0,
            latency: offered.iter().map(|_| Histogram::new()).collect(),
            offered,
            delivered,
            late: 0,
            byzantine_flagged: 0,
            reass_issued: 0,
            epochs_adopted: 0,
            max_height: 0,
            max_epoch: 0,
            faults_dropped: 0,
            faults_delayed: 0,
            trace_digest: curb_crypto::sha256::digest(b""),
        }
    }

    const KEPT_UP: Knee = Knee {
        phase: 0,
        offered_hz: 10.0,
        delivered_hz: 10.0,
        saturated: false,
    };

    fn scenario(extra: &str) -> Scenario {
        Scenario::parse(&format!(
            "name = \"t\"\nseed = 1\ntopology = \"synthetic\"\ncontrollers = 4\n\
             switches = 1\n{extra}\n[[phases]]\nduration_ms = 1000\nrate_hz = 10.0\n"
        ))
        .expect("test scenario parses")
    }

    #[test]
    fn a_clean_run_passes_every_gate() {
        let run = outcome(vec![10], vec![10]);
        assert!(gate_failures(&scenario(""), &run, Some(&KEPT_UP)).is_empty());
    }

    #[test]
    fn each_gate_trips_on_its_own() {
        let plain = scenario("");
        let missed = gate_failures(&plain, &outcome(vec![10], vec![9]), Some(&KEPT_UP));
        assert!(missed[0].contains("missed 1 of 10"), "{missed:?}");
        let idle = gate_failures(&plain, &outcome(vec![10, 0], vec![10, 0]), Some(&KEPT_UP));
        assert_eq!(idle, vec!["phase 1 offered no load".to_string()]);
        let no_knee = gate_failures(&plain, &outcome(vec![10], vec![10]), None);
        assert_eq!(no_knee.len(), 1, "{no_knee:?}");

        let partition = scenario("[[faults]]\nat_ms = 10\naction = \"partition\"\nside = [1]\n");
        let quiet = gate_failures(&partition, &outcome(vec![10], vec![10]), Some(&KEPT_UP));
        assert!(quiet[0].contains("dropped no frames"), "{quiet:?}");

        let liar = scenario("byzantine = [1]");
        let mut run = outcome(vec![10], vec![10]);
        run.byzantine_flagged = 2;
        run.max_epoch = 1;
        let unreassigned = gate_failures(&liar, &run, Some(&KEPT_UP));
        assert_eq!(unreassigned.len(), 1, "{unreassigned:?}");
        assert!(unreassigned[0].contains("reass_issued"), "{unreassigned:?}");
    }
}
