//! End-to-end cluster tests: the full 4-step round workflow over real
//! loopback TCP — PACKET_IN → intra-group PBFT → final-committee
//! block → REPLY — including the lying-controller byzantine scenario
//! and live RE-ASS.

use curb_chain::Block;
use curb_cluster::wire::{sb_stream, SB_WRITE_TIMEOUT};
use curb_cluster::{
    bootstrap_pinned, genesis_record, AgentEvent, ChainStore, Cluster, ClusterConfig, ClusterMsg,
    ControllerNode, CtrlPayload, NodeBehavior, NodeConfig,
};
use curb_consensus::Batch;
use curb_core::{ConfigData, SwitchId};
use curb_graph::synthetic;
use curb_net::{MuxTransport, ReactorConfig};
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
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

/// A config whose CAP model is always feasible on a random synthetic
/// topology (no delay bound surprises) and whose capacity forces the
/// requested group structure.
fn test_config(capacity: u32, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default();
    cfg.curb.seed = seed;
    cfg.curb.max_cs_delay_ms = 1e9;
    cfg.curb.max_cc_delay_ms = None;
    cfg.curb.controller_capacity = capacity;
    cfg.request_timeout = Duration::from_secs(2);
    cfg
}

/// Drains agent events without discarding them, so a milestone that
/// raced ahead of the one currently waited on is still observable.
struct EventLog<'a> {
    rx: &'a Receiver<(SwitchId, AgentEvent)>,
    seen: Vec<(SwitchId, AgentEvent)>,
}

impl<'a> EventLog<'a> {
    fn new(cluster: &'a Cluster) -> Self {
        EventLog {
            rx: &cluster.events,
            seen: Vec::new(),
        }
    }

    /// Waits until `pred` holds over everything seen so far; returns
    /// whether it did before the deadline.
    fn wait_until<F: FnMut(&[(SwitchId, AgentEvent)]) -> bool>(
        &mut self,
        secs: u64,
        mut pred: F,
    ) -> bool {
        let deadline = Instant::now() + Duration::from_secs(secs);
        loop {
            if pred(&self.seen) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            match self.rx.recv_timeout(Duration::from_millis(100)) {
                Ok(ev) => self.seen.push(ev),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return pred(&self.seen),
            }
        }
    }

    fn accepted_count(&self, switch: SwitchId) -> usize {
        self.seen
            .iter()
            .filter(|(s, e)| *s == switch && matches!(e, AgentEvent::Accepted { .. }))
            .count()
    }
}

#[test]
fn single_group_commits_flow_mods_end_to_end() {
    with_deadline(60, || {
        let topo = synthetic(4, 1, 11);
        let cluster = Cluster::launch(&topo, test_config(4, 1)).expect("launch");
        assert_eq!(cluster.epoch0.group_count(), 1);

        cluster.pkt_in(SwitchId(0), 0);
        let mut log = EventLog::new(&cluster);
        assert!(
            log.wait_until(30, |seen| seen
                .iter()
                .any(|(_, e)| matches!(e, AgentEvent::Accepted { .. }))),
            "request must commit end-to-end"
        );
        let config = log
            .seen
            .iter()
            .find_map(|(_, e)| match e {
                AgentEvent::Accepted { config, .. } => Some(config.clone()),
                _ => None,
            })
            .unwrap();
        assert!(
            matches!(config, ConfigData::FlowRules(ref rules) if !rules.is_empty()),
            "PKT-IN must commit flow rules, got {config:?}"
        );
        // The flow rules were installed at the agent.
        assert!(
            cluster.agents[0]
                .probe
                .flows
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
        // The round is on-chain on at least one node.
        assert!(cluster.max_height() >= 1);
        cluster.shutdown();
    });
}

/// Satellite: the lying-controller scenario. One group member sends
/// corrupted REPLYs; the agent still accepts on `f + 1` identical
/// honest replies and records the liar as byzantine evidence.
#[test]
fn lying_controller_is_outvoted_and_recorded() {
    with_deadline(60, || {
        let topo = synthetic(4, 1, 13);
        let mut cfg = test_config(4, 2);
        let liar = 2;
        cfg.behaviors = vec![NodeBehavior::Honest; 4];
        cfg.behaviors[liar] = NodeBehavior::Lying;
        let cluster = Cluster::launch(&topo, cfg).expect("launch");
        assert!(
            cluster.epoch0.ctrl_list(SwitchId(0)).contains(&liar),
            "test premise: the liar serves the switch"
        );

        cluster.pkt_in(SwitchId(0), 0);
        let mut log = EventLog::new(&cluster);
        // f + 1 identical honest replies beat the liar, and the
        // contradiction becomes byzantine evidence.
        assert!(
            log.wait_until(40, |seen| {
                seen.iter()
                    .any(|(_, e)| matches!(e, AgentEvent::Accepted { .. }))
                    && seen
                        .iter()
                        .any(|(_, e)| matches!(e, AgentEvent::Byzantine { .. }))
            }),
            "honest quorum must accept and the liar must be flagged; saw {:?}",
            log.seen
        );
        for (_, event) in &log.seen {
            match event {
                AgentEvent::Accepted { config, .. } => assert!(
                    !matches!(config, ConfigData::FlowRules(rules)
                        if rules.iter().any(|r| r.out_port == 0xBAD)),
                    "the corrupted config must never be accepted"
                ),
                AgentEvent::Byzantine { accused } => assert_eq!(accused, &vec![liar]),
                _ => {}
            }
        }
        cluster.shutdown();
    });
}

/// The tentpole acceptance scenario: two disjoint groups, a byzantine
/// controller in one of them, live RE-ASS — the liar is excluded by a
/// committed reassignment, agents re-home, and commits continue in
/// the new epoch without halting the other group.
#[test]
fn multi_group_reass_excludes_liar_and_commits_continue() {
    with_deadline(180, || {
        // 12 controllers / capacity 1 force two disjoint groups of 4
        // and leave spares for the reassignment to draw on.
        let topo = synthetic(12, 2, 17);
        let mut cfg = test_config(1, 3);
        let cluster = Cluster::launch(&topo, cfg.clone()).expect("probe launch");
        assert!(
            cluster.epoch0.group_count() >= 2,
            "need two distinct groups"
        );
        // Pick a *non-leader* member of switch 0's group as the liar
        // (a lying leader is also detected, but a non-leader keeps
        // this test focused on REPLY matching, not proposal duty).
        let g0 = cluster.epoch0.ctrl_list(SwitchId(0)).to_vec();
        let leader = cluster.epoch0.groups[cluster.epoch0.group_of(SwitchId(0)).0].leader();
        let liar = *g0
            .iter()
            .find(|&&c| c != leader)
            .expect("non-leader member");
        cluster.shutdown();

        cfg.behaviors = vec![NodeBehavior::Honest; 12];
        cfg.behaviors[liar] = NodeBehavior::Lying;
        let cluster = Cluster::launch(&topo, cfg).expect("launch");
        let mut log = EventLog::new(&cluster);

        // Round 1: both groups commit despite the liar, and the
        // liar's contradictions trigger a live RE-ASS.
        cluster.pkt_in(SwitchId(0), 1);
        cluster.pkt_in(SwitchId(1), 0);
        assert!(
            log.wait_until(60, |seen| {
                let a0 = seen
                    .iter()
                    .any(|(s, e)| s.0 == 0 && matches!(e, AgentEvent::Accepted { .. }));
                let a1 = seen
                    .iter()
                    .any(|(s, e)| s.0 == 1 && matches!(e, AgentEvent::Accepted { .. }));
                let reass = seen.iter().any(|(_, e)| {
                    matches!(e, AgentEvent::ReassIssued { accused, .. }
                        if accused.contains(&liar))
                });
                a0 && a1 && reass
            }),
            "both groups must commit and RE-ASS must fire against the liar; saw {:?}",
            log.seen
        );

        // The committed NewAssignment re-homes switch 0's agent onto a
        // group without the liar.
        assert!(
            log.wait_until(60, |seen| seen
                .iter()
                .any(|(s, e)| s.0 == 0 && matches!(e, AgentEvent::EpochAdopted { .. }))),
            "the reassignment must commit and be adopted; saw {:?}",
            log.seen
        );
        let ctrl_list = log
            .seen
            .iter()
            .rev()
            .find_map(|(s, e)| match e {
                AgentEvent::EpochAdopted { ctrl_list } if s.0 == 0 => Some(ctrl_list.clone()),
                _ => None,
            })
            .unwrap();
        assert!(
            !ctrl_list.contains(&liar),
            "the committed reassignment must exclude the liar, got {ctrl_list:?}"
        );
        assert!(cluster.max_epoch() >= 1, "nodes must rotate the epoch");

        // Commits continue across the epoch boundary, in both groups.
        let height_before = cluster.max_height();
        let (base0, base1) = (
            log.accepted_count(SwitchId(0)),
            log.accepted_count(SwitchId(1)),
        );
        cluster.pkt_in(SwitchId(0), 3);
        cluster.pkt_in(SwitchId(1), 2);
        assert!(
            log.wait_until(90, |seen| {
                let count = |sw: usize| {
                    seen.iter()
                        .filter(|(s, e)| s.0 == sw && matches!(e, AgentEvent::Accepted { .. }))
                        .count()
                };
                count(0) > base0 && count(1) > base1
            }),
            "commits must continue after RE-ASS; saw {:?}",
            log.seen
        );
        assert!(cluster.max_height() > height_before);
        cluster.shutdown();
    });
}

/// A controller outside the final committee adopts a block at `f + 1`
/// matching announcements, and which members announce differs from
/// height to height — so block 2's quorum can complete before block
/// 1's does. One real node, with three committee members played by
/// hand, must still reach height 2 once block 1's second announcement
/// lands: nobody will announce block 2 again.
#[test]
fn block_announcements_that_overtake_their_parent_are_not_lost() {
    with_deadline(60, || {
        // One pinned group of four is the final committee; the other
        // two controllers are spares outside it.
        let topo = synthetic(6, 1, 11);
        let boot = bootstrap_pinned(&topo, test_config(4, 1).curb, 1).expect("bootstrap");
        let n = boot.shared.plan.n_controllers;
        let committee = boot.epoch.final_com.clone();
        let outsider = (0..n)
            .find(|c| !committee.contains(c))
            .expect("a controller outside the committee");

        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind backbone"))
            .collect();
        let addrs: Vec<_> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect();
        let mux_cfg = ReactorConfig {
            group_id: boot.shared.config.seed,
            ..ReactorConfig::default()
        };
        let mut muxes: Vec<Option<MuxTransport<Batch<CtrlPayload>>>> = listeners
            .into_iter()
            .enumerate()
            .map(|(c, l)| {
                Some(MuxTransport::bind(c, l, addrs.clone(), mux_cfg.clone()).expect("bind mux"))
            })
            .collect();
        let node = ControllerNode::spawn(
            outsider,
            Arc::clone(&boot.shared),
            Arc::clone(&boot.epoch),
            muxes[outsider].take().expect("outsider's mux"),
            TcpListener::bind("127.0.0.1:0").expect("bind southbound"),
            NodeConfig::default(),
        );

        // The chain every node boots with, rebuilt the way
        // `ControllerNode::spawn` builds it, and two blocks on top.
        let genesis = genesis_record(&boot.shared, &boot.epoch);
        let b1 = Block::next(ChainStore::ephemeral(&genesis).tip(), Vec::new(), 1);
        let b2 = Block::next(&b1, Vec::new(), 2);
        let announce = |member: usize, block: &Block| {
            let msg = ClusterMsg::FinalBlock {
                epoch: 0,
                block: block.clone(),
            };
            muxes[member]
                .as_ref()
                .expect("committee member's mux")
                .send_app(outsider, &msg.encode());
        };

        // Block 2 gathers its quorum while block 1 has one announcement
        // (if these arrive late, the order below is the harmless one
        // and the test passes without exercising the overtaking).
        announce(committee[0], &b1);
        announce(committee[0], &b2);
        announce(committee[2], &b2);
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(node.probe.height.load(Ordering::Relaxed), 0);
        announce(committee[1], &b1);

        let deadline = Instant::now() + Duration::from_secs(10);
        while node.probe.height.load(Ordering::Relaxed) < 2 {
            assert!(
                Instant::now() < deadline,
                "stuck at height {} with block 2's quorum already in hand",
                node.probe.height.load(Ordering::Relaxed)
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(node);
    });
}

/// A peer that stops reading must not stall the writer's loop: once
/// the socket buffers are full, a write on a southbound stream fails
/// within the write timeout instead of blocking forever.
#[test]
fn a_southbound_write_to_a_peer_that_never_reads_fails_within_the_timeout() {
    with_deadline(60, || {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (_peer, _) = listener.accept().expect("accept"); // never read
        sb_stream(&stream).expect("set up the stream");
        let frame = vec![0u8; 1 << 20];
        let (err, blocked) = loop {
            let started = Instant::now();
            if let Err(e) = stream.write_all(&frame) {
                break (e, started.elapsed());
            }
        };
        assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{err}"
        );
        // One call may time out with a partial write before the next
        // one fails outright.
        assert!(blocked < 3 * SB_WRITE_TIMEOUT, "blocked {blocked:?}");
    });
}
