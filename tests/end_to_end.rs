//! End-to-end integration: the full Curb pipeline on the Internet2
//! topology — PKT-IN requests through intra-group consensus, the final
//! committee, the blockchain, replies, and flow-table installation.

#![allow(clippy::field_reassign_with_default)]
use curb::chain::{Block, Blockchain};
use curb::core::{ControllerId, CurbConfig, CurbNetwork, SwitchId};
use curb::graph::internet2;

#[test]
fn every_request_is_served_and_recorded() {
    let topo = internet2();
    let mut net = CurbNetwork::new(&topo, CurbConfig::default()).expect("feasible");
    let report = net.run_rounds(3);
    for r in &report.rounds {
        assert_eq!(r.accepted, r.requests, "round {}", r.round);
        assert_eq!(r.requests, 34, "one PKT-IN per switch per round");
        assert!(r.avg_latency.is_some());
        assert!(r.throughput_tps > 0.0);
        // Every served request became a blockchain transaction.
        assert!(r.committed_txs >= r.accepted, "round {}", r.round);
    }
    assert!(report.rounds[2].chain_height >= 3);
}

#[test]
fn flow_tables_install_agreed_rules_and_forward() {
    let topo = internet2();
    let mut net = CurbNetwork::new(&topo, CurbConfig::default()).expect("feasible");
    net.run_rounds(2);
    let mut forwarded_total = 0;
    for s in 0..net.n_switches() {
        let switch = net.switch(SwitchId(s));
        // Table-miss entry plus two installed rules (one per round).
        assert!(switch.flow_table().len() >= 3, "switch {s}");
        forwarded_total += switch.forwarded_packets();
    }
    // Each accepted config releases its buffered packet.
    assert!(forwarded_total >= 2 * 34 - 2, "got {forwarded_total}");
}

#[test]
fn all_honest_controllers_hold_identical_verified_chains() {
    let topo = internet2();
    let mut net = CurbNetwork::new(&topo, CurbConfig::default()).expect("feasible");
    net.run_rounds(3);
    let reference = net.controller(ControllerId(0)).chain();
    reference.verify().expect("valid chain");
    assert!(reference.height() >= 3);
    for c in 1..net.n_controllers() {
        let chain = net.controller(ControllerId(c)).chain();
        chain.verify().expect("valid chain");
        assert_eq!(
            chain.tip().hash(),
            reference.tip().hash(),
            "controller {c} diverged"
        );
    }
}

#[test]
fn parallel_pipeline_reaches_the_same_state() {
    let topo = internet2();
    let mut plain = CurbNetwork::new(&topo, CurbConfig::default()).expect("feasible");
    let mut parallel =
        CurbNetwork::new(&topo, CurbConfig::default().with_parallel(true)).expect("feasible");
    let a = plain.run_rounds(2);
    let b = parallel.run_rounds(2);
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.accepted, rb.accepted, "round {}", ra.round);
    }
    // Both pipelines commit the same *set* of requests (block packing
    // differs, so heights may differ).
    assert_eq!(
        a.rounds.iter().map(|r| r.committed_txs).sum::<usize>(),
        b.rounds.iter().map(|r| r.committed_txs).sum::<usize>(),
    );
}

#[test]
fn flat_baseline_serves_requests_too() {
    let topo = internet2();
    let mut net = CurbNetwork::new(&topo, CurbConfig::default().flat()).expect("feasible");
    let report = net.run_rounds(2);
    for r in &report.rounds {
        assert_eq!(r.accepted, 34, "round {}", r.round);
    }
}

#[test]
fn grouped_mode_uses_fewer_messages_than_flat() {
    let topo = internet2();
    let mut grouped = CurbNetwork::new(&topo, CurbConfig::default()).expect("feasible");
    let mut flat = CurbNetwork::new(&topo, CurbConfig::default().flat()).expect("feasible");
    let g = grouped.run_rounds(3).mean_messages();
    let f = flat.run_rounds(3).mean_messages();
    assert!(
        g < f,
        "grouped ({g}) should beat flat ({f}) already at N = 16"
    );
}

#[test]
fn signed_requests_work_end_to_end() {
    let topo = internet2();
    let mut config = CurbConfig::default();
    config.sign_requests = true;
    let mut net = CurbNetwork::new(&topo, config).expect("feasible");
    let r = net.run_round();
    assert_eq!(r.accepted, 34);
}

#[test]
fn hotstuff_engine_serves_requests_end_to_end() {
    use curb::consensus::CoreKind;
    let topo = internet2();
    let mut net = CurbNetwork::new(&topo, CurbConfig::default().with_core(CoreKind::HotStuff))
        .expect("feasible");
    let report = net.run_rounds(3);
    for r in &report.rounds {
        assert_eq!(r.accepted, r.requests, "round {}", r.round);
    }
    // Chains still identical and verified across all controllers.
    let reference = net.controller(ControllerId(0)).chain();
    reference.verify().expect("valid chain");
    for c in 1..net.n_controllers() {
        assert_eq!(
            net.controller(ControllerId(c)).chain().tip().hash(),
            reference.tip().hash(),
            "controller {c}"
        );
    }
}

#[test]
fn hotstuff_uses_fewer_messages_at_large_f() {
    use curb::consensus::CoreKind;
    let topo = internet2();
    let capacity = (((34 * 13) as f64 / 16.0) * 1.05).ceil() as u32 + 1;
    let run = |kind: CoreKind| {
        let mut config = CurbConfig::default().with_f(4).with_core(kind);
        config.controller_capacity = capacity;
        config.timeout = std::time::Duration::from_millis(2000);
        let mut net = CurbNetwork::new(&topo, config).expect("feasible");
        net.run_rounds(2).mean_messages()
    };
    let pbft = run(CoreKind::Pbft);
    let hotstuff = run(CoreKind::HotStuff);
    assert!(
        hotstuff < pbft * 0.8,
        "HotStuff {hotstuff} should undercut PBFT {pbft} at f = 4"
    );
}

#[test]
fn blockchain_persists_and_restores() {
    let topo = internet2();
    let mut net = CurbNetwork::new(&topo, CurbConfig::default()).expect("feasible");
    net.run_rounds(2);
    let chain = net.blockchain();
    // Block by block, as the WAL stores and replays them.
    let blocks = chain
        .iter()
        .map(|b| Block::from_bytes(&b.to_bytes()).expect("valid record"))
        .collect();
    let restored = Blockchain::from_blocks(blocks).expect("verifies");
    assert_eq!(restored.tip().hash(), chain.tip().hash());
    assert_eq!(restored.tx_count(), chain.tx_count());
}

#[test]
fn tendermint_engine_serves_requests_end_to_end() {
    use curb::consensus::CoreKind;
    let topo = internet2();
    let mut net = CurbNetwork::new(&topo, CurbConfig::default().with_core(CoreKind::Tendermint))
        .expect("feasible");
    let report = net.run_rounds(3);
    for r in &report.rounds {
        assert_eq!(r.accepted, r.requests, "round {}", r.round);
    }
    let reference = net.controller(ControllerId(0)).chain();
    reference.verify().expect("valid chain");
    for c in 1..net.n_controllers() {
        assert_eq!(
            net.controller(ControllerId(c)).chain().tip().hash(),
            reference.tip().hash(),
            "controller {c}"
        );
    }
}
