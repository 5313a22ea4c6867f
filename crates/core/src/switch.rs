//! The simulator's switch: a `curb-sim` driver of the [`AgentMachine`].
//!
//! A table miss buffers the packet and raises `PKT-IN`; the machine
//! decides acceptance and byzantine evidence. This driver signs and
//! sends requests, arms one timer per request, and releases a buffered
//! packet through its fresh rule (PACKET_OUT). It never re-raises an
//! unanswered request: Algorithm 1 does not.

use crate::agent::{AgentMachine, AgentOutput, ReqOutcome};
use crate::ids::SwitchId;
use crate::msg::CurbMsg;
use crate::payload::{ConfigData, ReqKind, RequestRecord, SignedRequest};
use crate::shared::Shared;
use curb_crypto::rng::DetRng;
use curb_crypto::KeyPair;
use curb_sdn::flow::{FlowAction, FlowTable};
use curb_sdn::Packet;
use curb_sim::{Actor, Context, NodeId, TimerTag};
use std::collections::BTreeMap;

/// The switch actor.
pub struct SwitchActor {
    shared: std::sync::Arc<Shared>,
    machine: AgentMachine,
    keys: Option<KeyPair>,
    rng: DetRng,
    /// Data packets awaiting their `PKT-IN`'s flow rule, by sequence
    /// number.
    buffered: BTreeMap<u64, Packet>,
    /// Data-plane packets successfully forwarded.
    forwarded: u64,
    /// Closed request outcomes, drained by the orchestrator.
    outcomes: Vec<ReqOutcome>,
}

impl std::fmt::Debug for SwitchActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchActor")
            .field("id", &self.machine.switch())
            .field("ctrl_list", &self.machine.ctrl_list())
            .field("outstanding", &self.machine.pending())
            .finish()
    }
}

impl SwitchActor {
    /// Creates switch `id` with its initial controller list.
    pub fn new(
        id: SwitchId,
        shared: std::sync::Arc<Shared>,
        ctrl_list: Vec<usize>,
        keys: Option<KeyPair>,
        rng: DetRng,
    ) -> Self {
        let machine = AgentMachine::new(id, ctrl_list, &shared, shared.config.timeout, 0);
        SwitchActor {
            shared,
            machine,
            keys,
            rng,
            buffered: BTreeMap::new(),
            forwarded: 0,
            outcomes: Vec::new(),
        }
    }

    /// Switch id.
    pub fn id(&self) -> SwitchId {
        self.machine.switch()
    }

    /// Current controller list.
    pub fn ctrl_list(&self) -> &[usize] {
        self.machine.ctrl_list()
    }

    /// Replaces the controller list (used by the orchestrator when a
    /// reassignment epoch is installed; normally the switch updates
    /// itself from an accepted `RE-ASS` config).
    pub fn set_ctrl_list(&mut self, list: Vec<usize>) {
        self.machine.adopt_ctrl_list(list);
    }

    /// The switch's flow table.
    pub fn flow_table(&self) -> &FlowTable {
        self.machine.flow_table()
    }

    /// Number of data-plane packets forwarded so far.
    pub fn forwarded_packets(&self) -> u64 {
        self.forwarded
    }

    /// Drains closed request outcomes. Open requests are closed as well
    /// if `close_all` is set (round boundary).
    pub fn drain_outcomes(&mut self, close_all: bool) -> Vec<ReqOutcome> {
        if close_all {
            self.outcomes.extend(self.machine.close_all());
            self.buffered.clear();
        }
        std::mem::take(&mut self.outcomes)
    }

    /// Signs `record` (when configured), sends it to the controller
    /// group and arms its deadline.
    fn broadcast(&mut self, ctx: &mut Context<'_, CurbMsg>, record: RequestRecord) {
        let signature = match (&self.keys, self.shared.config.sign_requests) {
            (Some(keys), true) => {
                let sig = keys.sign(&record.signing_bytes(), &mut self.rng);
                Some((keys.public(), sig))
            }
            _ => None,
        };
        let seq = record.key.seq;
        let req = SignedRequest { record, signature };
        for &c in self.machine.ctrl_list() {
            let node = self
                .shared
                .plan
                .controller_node(crate::ids::ControllerId(c));
            ctx.send(node, CurbMsg::Request(req.clone()));
        }
        ctx.set_timer(self.shared.config.timeout, seq);
    }

    fn raise(&mut self, ctx: &mut Context<'_, CurbMsg>, kind: ReqKind) -> u64 {
        let record = self.machine.raise(kind, 0, ctx.now().as_nanos());
        let seq = record.key.seq;
        self.broadcast(ctx, record);
        seq
    }

    /// Data-plane packet arrival: forward on a table hit, or buffer and
    /// raise `PKT-IN` on a miss.
    fn on_host_packet(&mut self, ctx: &mut Context<'_, CurbMsg>, packet: Packet) {
        let table = self.machine.flow_table_mut();
        match table.apply(&packet).map(<[FlowAction]>::first) {
            Some(Some(FlowAction::Output(_))) => {
                self.forwarded += 1;
            }
            Some(Some(FlowAction::Drop)) => {}
            _ => {
                // Table miss (or explicit punt): Step 1.
                let dst_host = packet.dst.0;
                let seq = self.raise(ctx, ReqKind::PktIn { dst_host });
                self.buffered.insert(seq, packet);
            }
        }
    }

    /// Carries out the machine's outputs.
    fn act(&mut self, ctx: &mut Context<'_, CurbMsg>, outputs: Vec<AgentOutput>) {
        for output in outputs {
            match output {
                AgentOutput::Request(record) => self.broadcast(ctx, record),
                AgentOutput::Accepted {
                    key,
                    config: ConfigData::FlowRules(_),
                    ..
                } => {
                    // PACKET_OUT: release the buffered packet through
                    // the fresh rule.
                    if let Some(p) = self.buffered.remove(&key.seq) {
                        let table = self.machine.flow_table_mut();
                        let action = table.apply(&p).map(<[FlowAction]>::first);
                        if matches!(action, Some(Some(FlowAction::Output(_)))) {
                            self.forwarded += 1;
                        }
                    }
                }
                AgentOutput::Closed(outcome) => {
                    self.buffered.remove(&outcome.key.seq);
                    self.outcomes.push(outcome);
                }
                // Accusations travel as their RE-ASS requests, and an
                // adopted list is already the machine's.
                _ => {}
            }
        }
    }
}

impl Actor<CurbMsg> for SwitchActor {
    fn on_message(&mut self, ctx: &mut Context<'_, CurbMsg>, _from: NodeId, msg: CurbMsg) {
        match msg {
            CurbMsg::HostPacket { packet } => self.on_host_packet(ctx, packet),
            CurbMsg::TriggerReassign { accused } => {
                self.raise(ctx, ReqKind::ReAss { accused });
            }
            CurbMsg::Reply {
                controller,
                key,
                config,
            } => {
                let outputs = self
                    .machine
                    .reply(controller, key, config, ctx.now().as_nanos());
                self.act(ctx, outputs);
            }
            _ => {
                // Control-plane internals are not addressed to switches.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, CurbMsg>, _tag: TimerTag) {
        let outputs = self.machine.deadline(ctx.now().as_nanos());
        self.act(ctx, outputs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CurbConfig;
    use crate::ids::NodePlan;
    use crate::payload::{FlowRuleSpec, RequestKey};
    use curb_sdn::HostId;
    use curb_sim::Simulation;
    use std::sync::Arc;
    use std::time::Duration;

    /// How a scripted controller answers requests.
    #[derive(Debug, Clone)]
    enum Script {
        /// Reply with the given flow rule after the delay.
        Reply { port: u16, delay: Duration },
        /// Never reply.
        Silent,
    }

    /// Test node: one real switch plus scripted controllers.
    #[derive(Debug)]
    enum TestNode {
        Switch(Box<SwitchActor>),
        Controller { id: usize, script: Script },
    }

    impl curb_sim::Actor<CurbMsg> for TestNode {
        fn on_message(&mut self, ctx: &mut Context<'_, CurbMsg>, from: NodeId, msg: CurbMsg) {
            match self {
                TestNode::Switch(s) => s.on_message(ctx, from, msg),
                TestNode::Controller { id, script } => {
                    if let CurbMsg::Request(req) = msg {
                        if let Script::Reply { port, delay } = script {
                            let config = ConfigData::FlowRules(vec![FlowRuleSpec {
                                priority: 10,
                                dst_host: match req.record.kind {
                                    ReqKind::PktIn { dst_host } => dst_host,
                                    ReqKind::ReAss { .. } => 0,
                                },
                                out_port: *port,
                            }]);
                            ctx.send_delayed(
                                from,
                                CurbMsg::Reply {
                                    controller: *id,
                                    key: req.record.key,
                                    config,
                                },
                                *delay,
                            );
                        }
                    }
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, CurbMsg>, tag: curb_sim::TimerTag) {
            if let TestNode::Switch(s) = self {
                s.on_timer(ctx, tag);
            }
        }
    }

    fn shared() -> Arc<Shared> {
        Arc::new(Shared {
            config: CurbConfig::default(),
            plan: NodePlan {
                n_controllers: 4,
                n_switches: 1,
            },
            keys: Vec::new(),
            cs_delay_ms: vec![vec![1.0; 4]],
            cc_delay_ms: vec![vec![1.0; 4]; 4],
            next_hop_port: vec![vec![0]],
        })
    }

    /// Builds a 5-node sim: controllers 0..4 with the given scripts,
    /// the switch at node 4.
    fn harness(scripts: [Script; 4]) -> Simulation<CurbMsg, TestNode> {
        let shared = shared();
        let mut actors: Vec<TestNode> = scripts
            .iter()
            .cloned()
            .enumerate()
            .map(|(id, script)| TestNode::Controller { id, script })
            .collect();
        actors.push(TestNode::Switch(Box::new(SwitchActor::new(
            SwitchId(0),
            shared,
            vec![0, 1, 2, 3],
            None,
            curb_crypto::rng::DetRng::new(1),
        ))));
        let mut sim = Simulation::new(actors);
        sim.set_uniform_delay(Duration::from_millis(5));
        sim
    }

    fn switch(sim: &Simulation<CurbMsg, TestNode>) -> &SwitchActor {
        match sim.actor(NodeId(4)) {
            TestNode::Switch(s) => s,
            TestNode::Controller { .. } => unreachable!("node 4 is the switch"),
        }
    }

    /// Injects a packet to a fresh destination (guaranteed table miss).
    fn inject_packet(sim: &mut Simulation<CurbMsg, TestNode>, dst: u32) {
        let packet = Packet::new(HostId(0), HostId(dst));
        sim.post(NodeId(4), NodeId(4), CurbMsg::HostPacket { packet });
    }

    fn fast(port: u16) -> Script {
        Script::Reply {
            port,
            delay: Duration::ZERO,
        }
    }

    #[test]
    fn quorum_of_matching_replies_installs_the_rule() {
        let mut sim = harness([fast(3), fast(3), fast(3), fast(3)]);
        inject_packet(&mut sim, 7);
        sim.run_to_quiescence();
        let sw = switch(&sim);
        // Table-miss + the installed rule.
        assert_eq!(sw.flow_table().len(), 2);
        // The buffered packet was released through the new rule.
        assert_eq!(sw.forwarded_packets(), 1);
    }

    #[test]
    fn one_matching_reply_is_not_enough() {
        // accept quorum is f+1 = 2; only controller 0 replies.
        let mut sim = harness([fast(3), Script::Silent, Script::Silent, Script::Silent]);
        inject_packet(&mut sim, 7);
        sim.run_to_quiescence();
        let sw = switch(&sim);
        assert_eq!(sw.flow_table().len(), 1, "only the table-miss entry");
        assert_eq!(sw.forwarded_packets(), 0);
    }

    #[test]
    fn contradicting_controller_is_accused_immediately() {
        // Three agree on port 3; controller 1 contradicts with port 9
        // and must be accused once the quorum forms.
        let mut sim = harness([
            fast(3),
            Script::Reply {
                port: 9,
                delay: Duration::ZERO,
            },
            fast(3),
            fast(3),
        ]);
        inject_packet(&mut sim, 7);
        sim.run_to_quiescence();
        // The accusation is a RE-ASS request on the wire.
        assert!(sim.stats().count("RE-ASS") >= 4, "broadcast to the group");
        let sw = switch(&sim);
        assert!(sw.flow_table().len() >= 2, "majority config still applied");
    }

    #[test]
    fn silent_controller_earns_miss_strikes_and_accusation() {
        let mut sim = harness([fast(3), fast(3), fast(3), Script::Silent]);
        // suspect_threshold = 5 one-per-round requests, each to a fresh
        // destination so every round raises a PKT-IN.
        for dst in 0..5 {
            inject_packet(&mut sim, dst);
            sim.run_to_quiescence();
        }
        assert!(
            sim.stats().count("RE-ASS") >= 4,
            "5 consecutive misses must trigger an accusation"
        );
    }

    #[test]
    fn responsive_controllers_are_never_accused() {
        let mut sim = harness([fast(3), fast(3), fast(3), fast(3)]);
        for dst in 0..8 {
            inject_packet(&mut sim, dst);
            sim.run_to_quiescence();
        }
        assert_eq!(sim.stats().count("RE-ASS"), 0);
        assert_eq!(switch(&sim).forwarded_packets(), 8);
    }

    #[test]
    fn straggler_within_margin_not_accused() {
        // Controller 3 is slower than the quorum but within the lazy
        // margin (300 ms): no accusation even after many rounds.
        let mut sim = harness([
            fast(3),
            fast(3),
            fast(3),
            Script::Reply {
                port: 3,
                delay: Duration::from_millis(100),
            },
        ]);
        for dst in 0..8 {
            inject_packet(&mut sim, dst);
            sim.run_to_quiescence();
        }
        assert_eq!(sim.stats().count("RE-ASS"), 0);
    }

    #[test]
    fn lazy_controller_beyond_margin_eventually_accused() {
        // 400 ms behind the quorum, beyond the 300 ms margin: lazy
        // strikes accumulate to the patience threshold (5).
        let mut sim = harness([
            fast(3),
            fast(3),
            fast(3),
            Script::Reply {
                port: 3,
                delay: Duration::from_millis(400),
            },
        ]);
        for dst in 0..6 {
            inject_packet(&mut sim, dst);
            sim.run_to_quiescence();
        }
        assert!(sim.stats().count("RE-ASS") >= 4);
    }

    #[test]
    fn reassignment_config_updates_ctrl_list() {
        let mut sim = harness([fast(3), fast(3), fast(3), fast(3)]);
        // Deliver a NewAssignment reply pair directly.
        let key = RequestKey {
            switch: SwitchId(0),
            seq: 1,
        };
        // Issue the request first so the key exists.
        sim.post(
            NodeId(4),
            NodeId(4),
            CurbMsg::TriggerReassign { accused: vec![3] },
        );
        sim.run_until(curb_sim::SimTime::from_nanos(1_000_000)); // deliver request only
        let config = ConfigData::NewAssignment {
            groups: vec![vec![0, 1, 2]],
        };
        for c in [0usize, 1] {
            sim.post(
                NodeId(c),
                NodeId(4),
                CurbMsg::Reply {
                    controller: c,
                    key,
                    config: config.clone(),
                },
            );
        }
        sim.run_to_quiescence();
        assert_eq!(switch(&sim).ctrl_list(), &[0, 1, 2]);
    }
}
