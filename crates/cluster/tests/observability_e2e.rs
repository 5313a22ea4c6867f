//! Observability end-to-end: the byzantine scenario must leave a
//! flight dump telling the whole story (flag → RE-ASS → epoch
//! rotation), and every node's introspection endpoint must answer
//! health/metrics/flight queries over real TCP while the cluster is
//! live.

use curb_cluster::{introspect_query, AgentEvent, Cluster, ClusterConfig, NodeBehavior};
use curb_core::SwitchId;
use curb_graph::synthetic;
use curb_telemetry::{parse_dump, EventKind, FlightConfig};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Watchdog: fail loudly instead of hanging CI if the cluster
/// deadlocks.
fn with_deadline<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("cluster test deadlocked");
}

/// The flight recorder is process-global; tests that install it must
/// not overlap.
fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn test_config(capacity: u32, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.curb.seed = seed;
    cfg.curb.max_cs_delay_ms = 1e9;
    cfg.curb.max_cc_delay_ms = None;
    cfg.curb.controller_capacity = capacity;
    cfg.request_timeout = Duration::from_secs(2);
    cfg
}

/// Waits until `pred` holds over all agent events seen so far.
fn wait_events<F: FnMut(&[(SwitchId, AgentEvent)]) -> bool>(
    cluster: &Cluster,
    secs: u64,
    mut pred: F,
) -> Vec<(SwitchId, AgentEvent)> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut seen = Vec::new();
    loop {
        if pred(&seen) || Instant::now() >= deadline {
            return seen;
        }
        match cluster.events.recv_timeout(Duration::from_millis(100)) {
            Ok(ev) => seen.push(ev),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return seen,
        }
    }
}

/// Pulls one string field out of a flat JSON object line.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Pulls one numeric field out of a flat JSON object line.
fn json_num_field(line: &str, key: &str) -> Option<i64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    digits.parse().ok()
}

/// The byzantine incident must leave a flight dump carrying the whole
/// causal chain in order: the liar is flagged, a RE-ASS is issued, and
/// a node rotates into the new epoch. Checkpointing is on (interval 8)
/// and the honest group commits eight rounds first, so some dump must
/// also hold a `checkpoint_stable` event: log GC runs in the full
/// multi-group runtime, not only under a bare `NetRunner`.
#[test]
fn byzantine_incident_leaves_a_flight_dump_with_the_full_sequence() {
    let _guard = recorder_lock();
    let dir = std::env::temp_dir().join(format!("curb-obs-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dump dir");
    curb_telemetry::enable();
    let recorder = curb_telemetry::install_flight_recorder(FlightConfig {
        dump_dir: Some(dir.clone()),
        // Every flag/RE-ASS/rotation dumps; the rotation dump — the
        // one that proves the sequence — must fit within the budget.
        max_dumps: 64,
        ..FlightConfig::default()
    });
    let dir2 = dir.clone();

    with_deadline(180, move || {
        // Same shape as the RE-ASS e2e: two disjoint groups of 4 with
        // spares, one non-leader liar serving switch 0.
        let topo = synthetic(12, 2, 17);
        let mut cfg = test_config(1, 3);
        let probe = Cluster::launch(&topo, cfg.clone()).expect("probe launch");
        let g0 = probe.epoch0.ctrl_list(SwitchId(0)).to_vec();
        let leader = probe.epoch0.groups[probe.epoch0.group_of(SwitchId(0)).0].leader();
        let liar = *g0.iter().find(|&&c| c != leader).expect("non-leader");
        probe.shutdown();

        cfg.behaviors = vec![NodeBehavior::Honest; 12];
        cfg.behaviors[liar] = NodeBehavior::Lying;
        cfg.node.runner.checkpoint_interval = 8;
        let cluster = Cluster::launch(&topo, cfg).expect("launch");
        // One round at a time, so each is its own consensus instance
        // on switch 1's intra lane and on the final lane.
        let accepted = |seen: &[(SwitchId, AgentEvent)]| {
            seen.iter()
                .any(|(s, e)| s.0 == 1 && matches!(e, AgentEvent::Accepted { .. }))
        };
        for host in 0..8 {
            cluster.pkt_in(SwitchId(1), host);
            let seen = wait_events(&cluster, 30, accepted);
            assert!(accepted(&seen), "honest round {host} must commit");
        }
        cluster.pkt_in(SwitchId(0), 1);
        cluster.pkt_in(SwitchId(1), 0);
        let seen = wait_events(&cluster, 120, |seen| {
            seen.iter()
                .any(|(s, e)| s.0 == 0 && matches!(e, AgentEvent::EpochAdopted { .. }))
        });
        assert!(
            seen.iter()
                .any(|(_, e)| matches!(e, AgentEvent::EpochAdopted { .. })),
            "the reassignment must commit and be adopted; saw {seen:?}"
        );
        assert!(cluster.max_epoch() >= 1, "nodes must rotate the epoch");
        cluster.shutdown();

        // A rotation dump exists; its event log tells the story in
        // causal order: flag, then RE-ASS, then rotation.
        let dumps: Vec<_> = std::fs::read_dir(&dir2)
            .expect("dump dir readable")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        let mut rotation_dumps: Vec<_> = dumps
            .iter()
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.contains("epoch_rotation"))
            })
            .collect();
        rotation_dumps.sort();
        let last = rotation_dumps.last().expect("an epoch_rotation dump");
        let text = std::fs::read_to_string(last).expect("dump readable");
        let (_, events) = parse_dump(&text);
        let pos = |kind: EventKind| events.iter().position(|e| e.kind == kind);
        let flag = pos(EventKind::ByzantineFlag).expect("byzantine_flag in dump");
        let reass = pos(EventKind::ReAss).expect("reass in dump");
        let rotation = pos(EventKind::EpochRotation).expect("epoch_rotation in dump");
        assert!(
            flag < reass && reass < rotation,
            "dump must order flag ({flag}) < reass ({reass}) < rotation ({rotation})"
        );
        assert!(
            dumps.iter().any(|p| {
                let text = std::fs::read_to_string(p).expect("dump readable");
                let (_, events) = parse_dump(&text);
                events.iter().any(|e| e.kind == EventKind::CheckpointStable)
            }),
            "a stable checkpoint must have been reached and recorded"
        );
    });

    assert!(recorder.dumps_taken() >= 1);
    curb_telemetry::uninstall_flight_recorder();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every controller's introspection endpoint answers over real TCP
/// while the cluster is live: flat-JSON health with the node's own
/// name and chain height, the metrics registry snapshot, and the
/// flight ring.
#[test]
fn introspection_endpoints_answer_on_a_live_cluster() {
    let _guard = recorder_lock();
    curb_telemetry::enable();
    let recorder = curb_telemetry::install_flight_recorder(FlightConfig::default());

    with_deadline(90, || {
        let topo = synthetic(4, 1, 11);
        let cluster = Cluster::launch(&topo, test_config(4, 1)).expect("launch");
        cluster.pkt_in(SwitchId(0), 0);
        let seen = wait_events(&cluster, 40, |seen| {
            seen.iter()
                .any(|(_, e)| matches!(e, AgentEvent::Accepted { .. }))
        });
        assert!(
            seen.iter()
                .any(|(_, e)| matches!(e, AgentEvent::Accepted { .. })),
            "round must commit before probing; saw {seen:?}"
        );

        // Each node's registry holds its backbone's `net.*` metrics:
        // once the mesh is up, one outbound and one inbound socket
        // per peer.
        let want = 2 * (cluster.registries.len() as i64 - 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        for (c, registry) in cluster.registries.iter().enumerate() {
            assert!(
                registry
                    .gauges()
                    .iter()
                    .any(|(name, _)| *name == "net.conns"),
                "ctrl{c}'s registry lacks the backbone's net.conns gauge"
            );
            loop {
                let conns = registry.gauge("net.conns").get();
                if conns == want {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "ctrl{c}: net.conns {conns}, want {want}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }

        let addrs = cluster.introspect_addrs();
        assert_eq!(addrs.len(), 4, "one endpoint per controller");
        let mut heights = Vec::new();
        for (c, addr) in addrs.iter().enumerate() {
            let health = introspect_query(*addr, "health").expect("health answer");
            assert_eq!(
                json_str_field(&health, "node").as_deref(),
                Some(format!("ctrl{c}").as_str()),
                "health names its own node: {health}"
            );
            heights.push(json_num_field(&health, "height").expect("height field"));

            let metrics = introspect_query(*addr, "metrics").expect("metrics answer");
            assert_eq!(
                json_str_field(&metrics, "node").as_deref(),
                Some(format!("ctrl{c}").as_str()),
                "metrics carry the node name: {metrics}"
            );

            // The flight answer is the recorder's merged ring dump;
            // with a recorder installed it parses as JSONL.
            let flight = introspect_query(*addr, "flight").expect("flight answer");
            let (spans, _) = parse_dump(&flight);
            assert!(
                !spans.is_empty(),
                "a committed round leaves spans in the flight ring"
            );

            let err = introspect_query(*addr, "bogus").expect("error answer");
            assert!(err.contains("error"), "unknown command answers: {err}");
        }
        assert!(
            heights.iter().any(|&h| h >= 1),
            "a committed round is on-chain somewhere: {heights:?}"
        );
        cluster.shutdown();
    });

    let _ = recorder;
    curb_telemetry::uninstall_flight_recorder();
}
