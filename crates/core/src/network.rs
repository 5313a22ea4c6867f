//! The top-level simulation: Step 0 initialisation and the round
//! driver.

use crate::config::{CurbConfig, PlaneMode};
use crate::controller::ControllerActor;
use crate::epoch::Epoch;
use crate::ids::{ControllerId, Entity, NodePlan, SwitchId};
use crate::metrics::{Report, RoundReport};
use crate::msg::CurbMsg;
use crate::payload::{ConfigData, ProtoTx};
use crate::shared::{ControllerBehavior, Shared};
use crate::switch::SwitchActor;
use curb_assign::{solve, Assignment, SolveError};
use curb_chain::Blockchain;
use curb_crypto::rng::DetRng;
use curb_crypto::KeyPair;
use curb_graph::{DelayModel, Internet2};
use curb_sdn::{HostId, Packet};
use curb_sim::{Actor, Context, NodeId, SimTime, Simulation, TimerTag};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Errors raised while constructing a [`CurbNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetupError {
    /// The initial controller-assignment problem is infeasible under
    /// the configured constraints.
    Assignment(SolveError),
    /// The topology does not contain both controllers and switches.
    EmptyTopology,
}

impl core::fmt::Display for SetupError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SetupError::Assignment(e) => write!(f, "initial assignment failed: {e}"),
            SetupError::EmptyTopology => write!(f, "topology has no controllers or switches"),
        }
    }
}

impl std::error::Error for SetupError {}

/// A simulated node: either a controller or a switch.
#[derive(Debug)]
pub enum CurbNode {
    /// A controller.
    Controller(Box<ControllerActor>),
    /// A switch (s-agent).
    Switch(Box<SwitchActor>),
}

impl Actor<CurbMsg> for CurbNode {
    fn on_message(&mut self, ctx: &mut Context<'_, CurbMsg>, from: NodeId, msg: CurbMsg) {
        match self {
            CurbNode::Controller(c) => c.on_message(ctx, from, msg),
            CurbNode::Switch(s) => s.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, CurbMsg>, tag: TimerTag) {
        match self {
            CurbNode::Controller(c) => c.on_timer(ctx, tag),
            CurbNode::Switch(s) => s.on_timer(ctx, tag),
        }
    }
}

/// The complete Curb simulation: topology, controllers, switches and
/// the round driver.
///
/// # Examples
///
/// ```rust
/// use curb_core::{CurbConfig, CurbNetwork};
/// use curb_graph::internet2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = internet2();
/// let mut net = CurbNetwork::new(&topo, CurbConfig::default())?;
/// let report = net.run_rounds(2);
/// assert_eq!(report.rounds.len(), 2);
/// assert!(report.rounds[0].accepted > 0);
/// # Ok(())
/// # }
/// ```
pub struct CurbNetwork {
    sim: Simulation<CurbMsg, CurbNode>,
    shared: Arc<Shared>,
    epoch: Arc<Epoch>,
    rng: DetRng,
    round: usize,
    chain_seen_height: u64,
    removed: Vec<bool>,
    metrics: RoundMetrics,
}

/// Typed handles into the per-network [`curb_telemetry::Registry`].
/// [`RoundReport`] remains the user-facing per-round view; the registry
/// accumulates the same quantities across the whole run.
#[derive(Clone)]
struct RoundMetrics {
    registry: curb_telemetry::Registry,
    rounds: curb_telemetry::Counter,
    requests: curb_telemetry::Counter,
    accepted: curb_telemetry::Counter,
    committed_txs: curb_telemetry::Counter,
    reassignments: curb_telemetry::Counter,
    messages: curb_telemetry::Counter,
    bytes: curb_telemetry::Counter,
    chain_height: curb_telemetry::Gauge,
    request_latency_ns: curb_telemetry::HistogramHandle,
}

impl RoundMetrics {
    fn new() -> Self {
        let registry = curb_telemetry::Registry::new();
        RoundMetrics {
            rounds: registry.counter("core.rounds"),
            requests: registry.counter("core.requests"),
            accepted: registry.counter("core.accepted"),
            committed_txs: registry.counter("core.committed_txs"),
            reassignments: registry.counter("core.reassignments"),
            messages: registry.counter("core.messages"),
            bytes: registry.counter("core.bytes"),
            chain_height: registry.gauge("core.chain_height"),
            request_latency_ns: registry.histogram("core.request_latency_ns"),
            registry,
        }
    }

    fn publish(&self, report: &RoundReport, latencies: &[Duration]) {
        self.rounds.inc();
        self.requests.add(report.requests as u64);
        self.accepted.add(report.accepted as u64);
        self.committed_txs.add(report.committed_txs as u64);
        self.reassignments.add(report.reassignments as u64);
        self.messages.add(report.messages);
        self.bytes.add(report.bytes);
        self.chain_height.set(report.chain_height as i64);
        for l in latencies {
            self.request_latency_ns.record(l.as_nanos() as u64);
        }
    }
}

impl std::fmt::Debug for CurbNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CurbNetwork")
            .field("controllers", &self.shared.plan.n_controllers)
            .field("switches", &self.shared.plan.n_switches)
            .field("groups", &self.epoch.group_count())
            .field("round", &self.round)
            .finish()
    }
}

impl CurbNetwork {
    /// Builds the simulation from a topology: runs Step 0 (key
    /// generation, the initial OP assignment, genesis block) and wires
    /// every site into the discrete-event network with
    /// geography-derived delays.
    ///
    /// # Errors
    ///
    /// Returns [`SetupError`] if the topology is empty or the initial
    /// assignment is infeasible.
    pub fn new(topo: &Internet2, config: CurbConfig) -> Result<Self, SetupError> {
        let controller_sites: Vec<usize> = topo.controllers().collect();
        let switch_sites: Vec<usize> = topo.switches().collect();
        if controller_sites.is_empty() || switch_sites.is_empty() {
            return Err(SetupError::EmptyTopology);
        }
        let plan = NodePlan {
            n_controllers: controller_sites.len(),
            n_switches: switch_sites.len(),
        };
        let model = DelayModel::paper_default();
        let km_table = topo.graph.all_pairs();
        let km = |a: usize, b: usize| km_table[a][b];
        let ms = |a: usize, b: usize| model.propagation(km(a, b)).as_secs_f64() * 1_000.0;

        let cs_delay_ms: Vec<Vec<f64>> = switch_sites
            .iter()
            .map(|&s| controller_sites.iter().map(|&c| ms(s, c)).collect())
            .collect();
        let cc_delay_ms: Vec<Vec<f64>> = controller_sites
            .iter()
            .map(|&a| controller_sites.iter().map(|&b| ms(a, b)).collect())
            .collect();

        // Routing table: first hop toward each destination switch.
        let mut next_hop_port = vec![vec![0u16; plan.n_switches]; plan.n_switches];
        for (i, &site) in switch_sites.iter().enumerate() {
            let neighbors: Vec<usize> = topo.graph.neighbors(site).map(|(n, _)| n).collect();
            for (j, &dst_site) in switch_sites.iter().enumerate() {
                if i == j {
                    next_hop_port[i][j] = 0; // local host port
                    continue;
                }
                if let Some((_, path)) = topo.graph.shortest_path(site, dst_site) {
                    let first_hop = path[1];
                    let port = neighbors
                        .iter()
                        .position(|&n| n == first_hop)
                        .expect("first hop is a neighbor");
                    next_hop_port[i][j] = (port + 1) as u16;
                }
            }
        }

        let mut rng = DetRng::new(config.seed);
        let controller_keys: Vec<KeyPair> = (0..plan.n_controllers)
            .map(|_| KeyPair::generate(&mut rng))
            .collect();
        let switch_keys: Vec<KeyPair> = (0..plan.n_switches)
            .map(|_| KeyPair::generate(&mut rng))
            .collect();
        let public_keys = controller_keys.iter().map(|k| k.public()).collect();

        let shared = Arc::new(Shared {
            config,
            plan,
            keys: public_keys,
            cs_delay_ms,
            cc_delay_ms,
            next_hop_port,
        });

        // Step 0: the initial assignment.
        let assignment = match shared.config.mode {
            PlaneMode::Grouped { .. } => {
                let model = shared.base_model();
                let solution =
                    solve(&model, &shared.initial_options()).map_err(SetupError::Assignment)?;
                solution.assignment
            }
            PlaneMode::Flat => {
                let all: Vec<usize> = (0..plan.n_controllers).collect();
                Assignment::from_groups(vec![all; plan.n_switches], plan.n_controllers)
            }
        };
        let removed = vec![false; plan.n_controllers];
        let epoch = Arc::new(Epoch::build(
            assignment,
            &shared.keys,
            shared.config.f,
            removed.clone(),
        ));
        let genesis_record = ConfigData::NewAssignment {
            groups: (0..plan.n_switches)
                .map(|i| epoch.assignment.group(i).iter().copied().collect())
                .collect(),
        }
        .encode();

        // Actors.
        let mut actors: Vec<CurbNode> = Vec::with_capacity(plan.total_nodes());
        for (c, keys) in controller_keys.into_iter().enumerate() {
            actors.push(CurbNode::Controller(Box::new(ControllerActor::new(
                c,
                shared.clone(),
                epoch.clone(),
                keys,
                rng.fork(),
                &genesis_record,
            ))));
        }
        for (s, keys) in switch_keys.into_iter().enumerate() {
            let sid = SwitchId(s);
            actors.push(CurbNode::Switch(Box::new(SwitchActor::new(
                sid,
                shared.clone(),
                epoch.ctrl_list(sid).to_vec(),
                Some(keys),
                rng.fork(),
            ))));
        }

        // The simulated network: propagation delays from in-network
        // shortest-path distances, serialization at 100 Mbps.
        let mut sim = Simulation::new(actors);
        let site_of = |node: usize| -> usize {
            if node < plan.n_controllers {
                controller_sites[node]
            } else {
                switch_sites[node - plan.n_controllers]
            }
        };
        let n = plan.total_nodes();
        let matrix: Vec<Vec<Duration>> = (0..n)
            .map(|a| {
                (0..n)
                    .map(|b| model.propagation(km(site_of(a), site_of(b))))
                    .collect()
            })
            .collect();
        sim.set_delay_matrix(matrix);
        sim.set_bandwidth_bps(Some(model.bandwidth_bps));
        for c in 0..plan.n_controllers {
            sim.set_service_time(NodeId(c), shared.config.controller_service);
        }
        for s in 0..plan.n_switches {
            sim.set_service_time(NodeId(plan.n_controllers + s), shared.config.switch_service);
        }

        Ok(CurbNetwork {
            sim,
            shared,
            epoch,
            rng,
            round: 0,
            chain_seen_height: 0,
            removed,
            metrics: RoundMetrics::new(),
        })
    }

    /// Number of controllers.
    pub fn n_controllers(&self) -> usize {
        self.shared.plan.n_controllers
    }

    /// Number of switches.
    pub fn n_switches(&self) -> usize {
        self.shared.plan.n_switches
    }

    /// The current epoch (assignment, groups, final committee).
    pub fn epoch(&self) -> &Epoch {
        &self.epoch
    }

    /// Blocks (or restores) the control channel between a switch and
    /// one of its controllers — a network partition rather than a node
    /// fault. From the switch's perspective the controller stops
    /// responding, so the same detection machinery applies.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn set_control_channel_blocked(
        &mut self,
        switch: SwitchId,
        controller: usize,
        blocked: bool,
    ) {
        let a = self.shared.plan.switch_node(switch);
        let b = self.shared.plan.controller_node(ControllerId(controller));
        if blocked {
            self.sim.block_link(a, b);
        } else {
            self.sim.unblock_link(a, b);
        }
    }

    /// Makes every delivery fail independently with the given
    /// probability (a lossy edge network); deterministic per seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn set_loss_rate(&mut self, p: f64) {
        self.sim.set_loss_rate(p);
    }

    /// Sets a controller's fault behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `controller` is out of range.
    pub fn set_controller_behavior(&mut self, controller: usize, behavior: ControllerBehavior) {
        let node = self.shared.plan.controller_node(ControllerId(controller));
        match self.sim.actor_mut(node) {
            CurbNode::Controller(c) => c.set_behavior(behavior),
            CurbNode::Switch(_) => unreachable!("node plan maps controllers first"),
        }
    }

    /// The blockchain of the first honest controller.
    pub fn blockchain(&self) -> &Blockchain {
        let c = self.honest_controller();
        match self
            .sim
            .actor(self.shared.plan.controller_node(ControllerId(c)))
        {
            CurbNode::Controller(actor) => actor.chain(),
            CurbNode::Switch(_) => unreachable!("node plan maps controllers first"),
        }
    }

    /// Access to a controller actor (e.g. to inspect its blockchain).
    ///
    /// # Panics
    ///
    /// Panics if `controller` is out of range.
    pub fn controller(&self, controller: ControllerId) -> &ControllerActor {
        match self.sim.actor(self.shared.plan.controller_node(controller)) {
            CurbNode::Controller(c) => c,
            CurbNode::Switch(_) => unreachable!("node plan maps controllers first"),
        }
    }

    /// Access to a switch actor (e.g. to inspect its flow table).
    ///
    /// # Panics
    ///
    /// Panics if `switch` is out of range.
    pub fn switch(&self, switch: SwitchId) -> &SwitchActor {
        match self.sim.actor(self.shared.plan.switch_node(switch)) {
            CurbNode::Switch(s) => s,
            CurbNode::Controller(_) => unreachable!("node plan maps switches after controllers"),
        }
    }

    /// Cumulative message statistics of the simulated network.
    pub fn message_stats(&self) -> &curb_sim::MessageStats {
        self.sim.stats()
    }

    /// Telemetry registry accumulating round metrics across the run
    /// (`core.*` counters plus the `core.request_latency_ns`
    /// histogram). Per-round [`RoundReport`]s are views over the same
    /// quantities, scoped to one round.
    pub fn registry(&self) -> &curb_telemetry::Registry {
        &self.metrics.registry
    }

    /// Installs this simulation's virtual clock as the process-wide
    /// telemetry clock, so trace spans carry simulated timestamps.
    pub fn install_telemetry_clock(&self) {
        self.sim.install_telemetry_clock();
    }

    /// Number of simulator events still queued (should stay small at
    /// round boundaries; useful for debugging).
    pub fn pending_events(&self) -> usize {
        self.sim.pending_events()
    }

    fn honest_controller(&self) -> usize {
        (0..self.shared.plan.n_controllers)
            .find(|&c| {
                match self
                    .sim
                    .actor(self.shared.plan.controller_node(ControllerId(c)))
                {
                    CurbNode::Controller(actor) => {
                        actor.behavior() == ControllerBehavior::Honest && !self.removed[c]
                    }
                    CurbNode::Switch(_) => false,
                }
            })
            .unwrap_or(0)
    }

    /// Runs one protocol round: every switch receives one fresh host
    /// flow (guaranteed table miss), raising one PKT-IN each; the round
    /// is driven until `2 × timeout` of simulated time has passed.
    pub fn run_round(&mut self) -> RoundReport {
        self.round += 1;
        let start = self.sim.now();
        let messages_before = self.sim.stats().total_messages();
        let bytes_before = self.sim.stats().total_bytes();
        let n_switches = self.shared.plan.n_switches;

        // Consensus instances are round-scoped: every round starts from
        // the designated (fixed) leaders, per constraint C2.6.
        for c in 0..self.shared.plan.n_controllers {
            let node = self.shared.plan.controller_node(ControllerId(c));
            if let CurbNode::Controller(actor) = self.sim.actor_mut(node) {
                actor.begin_round();
            }
        }

        // Inject fresh flows: `requests_per_switch` per switch, spread
        // over the injection window. Host numbering makes every
        // destination unique across rounds and repeats, so each packet
        // is a guaranteed table miss (a new flow).
        let per_switch = self.shared.config.requests_per_switch.max(1);
        let window_ns = self.shared.config.inject_window.as_nanos() as u64;
        for k in 0..per_switch {
            for s in 0..n_switches {
                let dst = {
                    let d = self.rng.next_below(n_switches.max(2) as u64 - 1) as usize;
                    if d >= s {
                        d + 1
                    } else {
                        d
                    }
                };
                let flow = self.round * per_switch + k;
                let dst_host = (flow * n_switches + dst) as u32;
                let src_host = s as u32;
                let node = self.shared.plan.switch_node(SwitchId(s));
                let packet = Packet::new(HostId(src_host), HostId(dst_host));
                let at = if window_ns == 0 {
                    start
                } else {
                    start + Duration::from_nanos(self.rng.next_below(window_ns))
                };
                self.sim
                    .post_at(at, node, node, CurbMsg::HostPacket { packet });
            }
        }

        let deadline = start + self.shared.config.timeout * 2;
        self.sim.run_until(deadline);
        self.finish_round(start, messages_before, bytes_before)
    }

    /// Drains switch outcomes and builds the round report.
    fn finish_round(
        &mut self,
        start: SimTime,
        messages_before: u64,
        bytes_before: u64,
    ) -> RoundReport {
        self.sync_lagging_chains();
        let n_switches = self.shared.plan.n_switches;
        // Collect outcomes.
        let mut latencies: Vec<Duration> = Vec::new();
        let mut requests = 0;
        let mut accepted = 0;
        let mut reassignments = 0;
        let mut last_accept: Option<SimTime> = None;
        for s in 0..n_switches {
            let node = self.shared.plan.switch_node(SwitchId(s));
            let outcomes = match self.sim.actor_mut(node) {
                CurbNode::Switch(sw) => sw.drain_outcomes(true),
                CurbNode::Controller(_) => unreachable!("switch nodes"),
            };
            for o in outcomes {
                requests += 1;
                if let Some(at) = o.accepted_ns.map(SimTime::from_nanos) {
                    accepted += 1;
                    latencies.push(at.since(SimTime::from_nanos(o.sent_ns)));
                    last_accept = Some(last_accept.map_or(at, |t: SimTime| t.max(at)));
                    if o.is_reassignment {
                        reassignments += 1;
                    }
                }
            }
        }
        let avg_latency = if latencies.is_empty() {
            None
        } else {
            Some(latencies.iter().sum::<Duration>() / latencies.len() as u32)
        };
        let throughput_tps = match last_accept {
            Some(t) if t > start => accepted as f64 / t.since(start).as_secs_f64(),
            _ => 0.0,
        };

        // Apply committed reassignments (effective next round).
        let (pdl, committed_reass) = self.apply_reassignments();
        // Count reassignments by what the blockchain committed, not by
        // switch-side acceptance: a RE-ASS issued at a round's timeout
        // often completes just across the round boundary.
        let reassignments = reassignments.max(committed_reass);

        let chain_height = self.blockchain().height();
        let committed_txs = {
            let chain = self.blockchain();
            let seen = self.chain_seen_height;
            let mut n = 0;
            for h in (seen + 1)..=chain.height() {
                if let Some(b) = chain.block_at(h) {
                    n += b.txs.len();
                }
            }
            n
        };
        self.chain_seen_height = chain_height;

        let removed_controllers: Vec<usize> = self
            .removed
            .iter()
            .enumerate()
            .filter(|(_, &r)| r)
            .map(|(c, _)| c)
            .collect();

        let report = RoundReport {
            round: self.round,
            requests,
            accepted,
            committed_txs,
            avg_latency,
            throughput_tps,
            messages: self.sim.stats().total_messages() - messages_before,
            bytes: self.sim.stats().total_bytes() - bytes_before,
            reassignments,
            removed_controllers,
            pdl,
            chain_height,
            duration: self.sim.now().since(start),
        };
        self.metrics.publish(&report, &latencies);
        report
    }

    /// Runs `n` rounds and aggregates the reports.
    pub fn run_rounds(&mut self, n: usize) -> Report {
        Report {
            rounds: (0..n).map(|_| self.run_round()).collect(),
        }
    }

    /// Runs one round in which every switch issues a `RE-ASS` request
    /// accusing `accused` (instead of the usual PKT-IN workload). An
    /// empty accusation exercises the full OP + consensus reassignment
    /// path without changing the assignment — the workload of the
    /// paper's Fig. 9.
    pub fn run_reassignment_round(&mut self, accused: Vec<usize>) -> RoundReport {
        self.round += 1;
        let start = self.sim.now();
        let messages_before = self.sim.stats().total_messages();
        let bytes_before = self.sim.stats().total_bytes();
        let n_switches = self.shared.plan.n_switches;
        for c in 0..self.shared.plan.n_controllers {
            let node = self.shared.plan.controller_node(ControllerId(c));
            if let CurbNode::Controller(actor) = self.sim.actor_mut(node) {
                actor.begin_round();
            }
        }
        for s in 0..n_switches {
            let node = self.shared.plan.switch_node(SwitchId(s));
            self.sim.post(
                node,
                node,
                CurbMsg::TriggerReassign {
                    accused: accused.clone(),
                },
            );
        }
        let deadline = start + self.shared.config.timeout * 2;
        self.sim.run_until(deadline);
        self.finish_round(start, messages_before, bytes_before)
    }

    /// Scans the (honest) chain for newly committed reassignments and
    /// installs the latest as the next epoch. Returns the PDL if an
    /// epoch change happened, plus the number of committed RE-ASS
    /// transactions.
    fn apply_reassignments(&mut self) -> (Option<f64>, usize) {
        let mut committed_reass = 0usize;
        let mut newly_accused: BTreeSet<usize> = BTreeSet::new();
        let new_groups: Option<Vec<Vec<usize>>> = {
            let chain = self.blockchain();
            // Walk transactions in chain order; an assignment is valid
            // only if it uses no controller accused at or before its
            // position (concurrent solves cannot see each other's
            // accusations, so a later-committed assignment could
            // otherwise resurrect a just-removed byzantine controller).
            let mut removed_so_far: BTreeSet<usize> = self
                .removed
                .iter()
                .enumerate()
                .filter(|(_, &r)| r)
                .map(|(c, _)| c)
                .collect();
            let mut latest = None;
            for h in (self.chain_seen_height + 1)..=chain.height() {
                let Some(block) = chain.block_at(h) else {
                    continue;
                };
                for tx in &block.txs {
                    if let Some(proto) = ProtoTx::from_chain_tx(tx) {
                        if let crate::payload::ReqKind::ReAss { accused } = &proto.record.kind {
                            committed_reass += 1;
                            newly_accused.extend(accused.iter().copied());
                            removed_so_far.extend(accused.iter().copied());
                        }
                        if let ConfigData::NewAssignment { groups } = proto.config {
                            let uses_removed =
                                groups.iter().flatten().any(|c| removed_so_far.contains(c));
                            if !uses_removed {
                                latest = Some(groups);
                            }
                        }
                    }
                }
            }
            latest
        };
        // Only controllers accused by a *committed* RE-ASS are removed
        // from the control plane; merely-unused controllers stay
        // eligible for future assignments. Removal is recorded even if
        // the applied assignment ends up unchanged, so later OP solves
        // keep excluding them.
        let mut removed_changed = false;
        for c in newly_accused {
            if c < self.removed.len() && !self.removed[c] {
                self.removed[c] = true;
                removed_changed = true;
            }
        }
        let new_assignment = match new_groups {
            Some(groups) => Assignment::from_groups(groups, self.shared.plan.n_controllers),
            None if removed_changed => self.epoch.assignment.clone(),
            None => return (None, committed_reass),
        };
        if new_assignment == self.epoch.assignment && !removed_changed {
            return (None, committed_reass);
        }
        let pdl = self.epoch.assignment.pdl_to(&new_assignment);
        let epoch = Arc::new(Epoch::build(
            new_assignment,
            &self.shared.keys,
            self.shared.config.f,
            self.removed.clone(),
        ));
        self.epoch = epoch.clone();
        for c in 0..self.shared.plan.n_controllers {
            let node = self.shared.plan.controller_node(ControllerId(c));
            if let CurbNode::Controller(actor) = self.sim.actor_mut(node) {
                actor.install_epoch(epoch.clone());
            }
        }
        for s in 0..self.shared.plan.n_switches {
            let sid = SwitchId(s);
            let node = self.shared.plan.switch_node(sid);
            let list = epoch.ctrl_list(sid).to_vec();
            if let CurbNode::Switch(actor) = self.sim.actor_mut(node) {
                actor.set_ctrl_list(list);
            }
        }
        (Some(pdl), committed_reass)
    }

    /// State transfer at the round boundary: controllers that missed
    /// block announcements adopt the longest honest chain (every block
    /// on an honest chain is final-committee certified, so longest =
    /// most complete), so a future leadership role never builds on a
    /// stale tip and replies never dry up behind a height gap.
    fn sync_lagging_chains(&mut self) {
        let best = (0..self.shared.plan.n_controllers)
            .filter(|&c| {
                matches!(
                    self.sim.actor(self.shared.plan.controller_node(ControllerId(c))),
                    CurbNode::Controller(a)
                        if a.behavior() == ControllerBehavior::Honest && !self.removed[c]
                )
            })
            .max_by_key(|&c| {
                match self
                    .sim
                    .actor(self.shared.plan.controller_node(ControllerId(c)))
                {
                    CurbNode::Controller(a) => a.chain().height(),
                    CurbNode::Switch(_) => 0,
                }
            })
            .unwrap_or(0);
        let reference: Vec<curb_chain::Block> = match self
            .sim
            .actor(self.shared.plan.controller_node(ControllerId(best)))
        {
            CurbNode::Controller(a) => a.chain().iter().cloned().collect(),
            CurbNode::Switch(_) => return,
        };
        let tip_height = reference.last().map_or(0, |b| b.header.height);
        for c in 0..self.shared.plan.n_controllers {
            let node = self.shared.plan.controller_node(ControllerId(c));
            if let CurbNode::Controller(actor) = self.sim.actor_mut(node) {
                if actor.chain().height() < tip_height {
                    actor.catch_up(&reference);
                }
            }
        }
    }

    /// Resolves which entity lives on a node (mostly for debugging).
    pub fn entity(&self, node: NodeId) -> Entity {
        self.shared.plan.entity(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curb_graph::{internet2, synthetic, Graph, Role, Site};

    fn empty_topology() -> Internet2 {
        // A single switch site, no controllers.
        Internet2 {
            sites: vec![Site {
                name: "lonely".to_string(),
                lat: 40.0,
                lon: -100.0,
                role: Role::Switch,
            }],
            graph: Graph::with_nodes(1),
        }
    }

    #[test]
    fn empty_topology_rejected() {
        let err = CurbNetwork::new(&empty_topology(), CurbConfig::default()).unwrap_err();
        assert_eq!(err, SetupError::EmptyTopology);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn infeasible_assignment_reported() {
        // D_c,s below the feasibility threshold of the Internet2 CAP.
        let config = CurbConfig {
            max_cs_delay_ms: 1.0,
            ..CurbConfig::default()
        };
        let err = CurbNetwork::new(&internet2(), config).unwrap_err();
        assert!(matches!(err, SetupError::Assignment(_)));
    }

    #[test]
    fn flat_mode_assigns_every_controller_to_every_switch() {
        let net = CurbNetwork::new(&internet2(), CurbConfig::default().flat()).unwrap();
        assert_eq!(net.epoch().group_count(), 1);
        assert_eq!(net.epoch().groups[0].members.len(), 16);
        for s in 0..net.n_switches() {
            assert_eq!(net.switch(SwitchId(s)).ctrl_list().len(), 16);
        }
    }

    #[test]
    fn accessors_are_consistent() {
        let net = CurbNetwork::new(&internet2(), CurbConfig::default()).unwrap();
        assert_eq!(net.n_controllers(), 16);
        assert_eq!(net.n_switches(), 34);
        assert_eq!(net.pending_events(), 0);
        assert_eq!(net.blockchain().height(), 0, "genesis only before rounds");
        assert!(matches!(net.entity(NodeId(0)), Entity::Controller(_)));
        assert!(matches!(net.entity(NodeId(16)), Entity::Switch(_)));
        for c in 0..16 {
            assert_eq!(net.controller(ControllerId(c)).id(), ControllerId(c));
        }
    }

    #[test]
    fn every_switch_has_a_full_group_initially() {
        let net = CurbNetwork::new(&internet2(), CurbConfig::default()).unwrap();
        for s in 0..net.n_switches() {
            let list = net.switch(SwitchId(s)).ctrl_list();
            assert_eq!(list.len(), 4, "switch {s} group size 3f+1");
            // The epoch and the switch agree.
            assert_eq!(list, net.epoch().ctrl_list(SwitchId(s)));
        }
    }

    #[test]
    fn reassignment_round_on_synthetic_topology() {
        let topo = synthetic(8, 12, 3);
        let config = CurbConfig {
            max_cs_delay_ms: f64::INFINITY,
            controller_capacity: 16,
            ..CurbConfig::default()
        };
        let mut net = CurbNetwork::new(&topo, config).unwrap();
        let report = net.run_reassignment_round(Vec::new());
        assert_eq!(report.accepted, report.requests);
        assert!(report.reassignments > 0);
    }

    #[test]
    fn registry_accumulates_round_metrics() {
        let topo = synthetic(8, 12, 3);
        let config = CurbConfig {
            max_cs_delay_ms: f64::INFINITY,
            controller_capacity: 16,
            ..CurbConfig::default()
        };
        let mut net = CurbNetwork::new(&topo, config).unwrap();
        let r1 = net.run_round();
        let r2 = net.run_round();
        let reg = net.registry();
        assert_eq!(reg.counter("core.rounds").get(), 2);
        assert_eq!(
            reg.counter("core.requests").get(),
            (r1.requests + r2.requests) as u64
        );
        assert_eq!(
            reg.counter("core.accepted").get(),
            (r1.accepted + r2.accepted) as u64
        );
        assert_eq!(
            reg.counter("core.committed_txs").get(),
            (r1.committed_txs + r2.committed_txs) as u64
        );
        assert_eq!(
            reg.counter("core.messages").get(),
            r1.messages + r2.messages
        );
        assert_eq!(reg.gauge("core.chain_height").get(), r2.chain_height as i64);
        let hist = reg.histogram("core.request_latency_ns").snapshot();
        assert_eq!(hist.count(), (r1.accepted + r2.accepted) as u64);
        // The histogram and the report agree on the scale of latencies.
        let mean_ns = (r1.avg_latency.unwrap() + r2.avg_latency.unwrap()).as_nanos() as f64 / 2.0;
        assert!(hist.mean() > mean_ns / 4.0);
        assert!(hist.mean() < mean_ns * 4.0);
    }

    #[test]
    fn genesis_records_the_initial_assignment() {
        let net = CurbNetwork::new(&internet2(), CurbConfig::default()).unwrap();
        let genesis = net.blockchain().block_at(0).unwrap();
        assert_eq!(genesis.txs.len(), 1);
        // The record decodes back to the epoch's groups.
        let config = &genesis.txs[0].config;
        match curb_chain::codec::decode_all(config, ConfigData::read).expect("valid init record") {
            ConfigData::NewAssignment { groups } => {
                for (i, g) in groups.iter().enumerate() {
                    let expected: Vec<usize> =
                        net.epoch().assignment.group(i).iter().copied().collect();
                    assert_eq!(g, &expected, "switch {i}");
                }
            }
            other => panic!("unexpected genesis config {other:?}"),
        }
    }
}
