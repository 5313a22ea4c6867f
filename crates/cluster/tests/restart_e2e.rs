//! Restart regression: a multi-node cluster with persistence switched
//! on gives every controller its own archive directory, and a relaunch
//! from the same directory restores every node's chain — height, tip
//! and the ability to extend it, with a request identical to one of the
//! first life.

use curb_chain::Block;
use curb_cluster::{genesis_record, AgentEvent, ChainStore, Cluster, ClusterConfig, PersistConfig};
use curb_core::{ProtoTx, ReqKind, RequestKey, SwitchId};
use curb_graph::synthetic;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const CONTROLLERS: usize = 4;

fn config(dir: &Path) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.curb.seed = 21;
    cfg.curb.max_cs_delay_ms = 1e9;
    cfg.curb.max_cc_delay_ms = None;
    cfg.curb.controller_capacity = 4;
    cfg.node.persist = Some(PersistConfig::new(dir.to_path_buf()));
    cfg
}

/// Raises one PACKET_IN and waits for its accept; returns the key it
/// was accepted under.
fn commit_round(cluster: &Cluster, switch: usize, dst_host: u32) -> RequestKey {
    cluster.pkt_in(SwitchId(switch), dst_host);
    loop {
        let (_, event) = cluster
            .events
            .recv_timeout(Duration::from_secs(30))
            .expect("round must commit end-to-end");
        if let AgentEvent::Accepted { key, .. } = event {
            return key;
        }
    }
}

fn heights(cluster: &Cluster) -> Vec<u64> {
    cluster
        .nodes
        .iter()
        .map(|n| n.probe.height.load(Ordering::Relaxed))
        .collect()
}

/// Waits until every node reports `height`.
fn settle(cluster: &Cluster, height: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while heights(cluster) != vec![height; CONTROLLERS] {
        assert!(
            Instant::now() < deadline,
            "nodes stuck at {:?}, want {height}",
            heights(cluster)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Opens node `c`'s archive the way the node itself does.
fn open_archive(cluster_dir: &Path, c: usize, genesis: &[u8]) -> ChainStore {
    let dir = cluster_dir.join(format!("ctrl{c}"));
    assert!(dir.is_dir(), "controller {c} has its own directory");
    ChainStore::open(PersistConfig::new(dir), genesis).expect("open node archive")
}

#[test]
fn persisted_cluster_restarts_from_its_archives() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        run();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(180))
        .expect("restart test deadlocked");
}

fn run() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("curb-restart-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let topo = synthetic(CONTROLLERS, 2, 17);

    // First life: commit a few rounds, then stop.
    let cluster = Cluster::launch(&topo, config(&dir)).expect("launch");
    let genesis = genesis_record(&cluster.shared, &cluster.epoch0);
    let first_life: Vec<RequestKey> = (0..6u32)
        .map(|round| commit_round(&cluster, round as usize % 2, round))
        .collect();
    let height = cluster.max_height();
    assert!(height >= 1);
    settle(&cluster, height);
    cluster.shutdown();

    let tips: Vec<Block> = (0..CONTROLLERS)
        .map(|c| {
            let store = open_archive(&dir, c, &genesis);
            assert_eq!(store.height(), height, "controller {c}");
            assert_eq!(store.verify().expect("archive verifies"), height);
            store.tip().clone()
        })
        .collect();
    assert!(tips.iter().all(|t| t.hash() == tips[0].hash()));

    // Second life, same directory: every node is back where it was.
    let cluster = Cluster::launch(&topo, config(&dir)).expect("relaunch");
    for (c, node) in cluster.nodes.iter().enumerate() {
        assert_eq!(node.probe.height.load(Ordering::Relaxed), height, "ctrl{c}");
        assert_eq!(
            node.probe.restored.load(Ordering::Relaxed),
            height,
            "ctrl{c}"
        );
    }
    // The same request as the first life's first round. The restarted
    // agent numbers it above everything it issued before, so it is not
    // a replay of that round. (An agent renumbering from 1 would see it
    // rejected, and commit only a retry under a seq of its first life.)
    let key = commit_round(&cluster, 0, 0);
    assert!(
        first_life
            .iter()
            .all(|k| k.switch != key.switch || k.seq < key.seq),
        "{key:?} reuses a first-life seq: {first_life:?}"
    );
    settle(&cluster, height + 1);
    cluster.shutdown();

    // The new block links to the restored tip on every node, so each
    // node restored the tip hash, not just the height.
    for (c, tip) in tips.iter().enumerate() {
        let store = open_archive(&dir, c, &genesis);
        assert_eq!(store.height(), height + 1, "controller {c}");
        assert_eq!(store.block_at(height), Some(tip), "controller {c}");
        assert_eq!(store.tip().header.prev_hash, tip.hash(), "controller {c}");
        assert_eq!(store.verify().expect("archive verifies"), height + 1);
        let committed: Vec<ProtoTx> = store
            .tip()
            .txs
            .iter()
            .filter_map(ProtoTx::from_chain_tx)
            .collect();
        assert_eq!(committed.len(), 1, "controller {c}");
        assert_eq!(committed[0].record.key, key, "controller {c}");
        assert_eq!(committed[0].record.kind, ReqKind::PktIn { dst_host: 0 });
    }
    let _ = std::fs::remove_dir_all(&dir);
}
