//! Cluster bootstrap: Step 0 over real sockets.
//!
//! [`Cluster::launch`] runs the paper's initialisation on a topology —
//! deterministic key generation, the OP controller assignment via the
//! CAP solver, the genesis block — then binds one backbone listener
//! and one southbound listener per controller on the loopback
//! interface, spawns every [`ControllerNode`], and starts one
//! [`SAgent`] per switch. The result is the full 4-step Curb round
//! workflow over TCP: PACKET_IN → intra-group PBFT → final-committee
//! PBFT → block append → REPLY, with live RE-ASS on byzantine
//! evidence.

use crate::introspect::{IntrospectServer, IntrospectState};
use crate::node::{ControllerNode, NodeBehavior, NodeConfig, NodeHandle};
use crate::payload::CtrlPayload;
use crate::sagent::{AgentEvent, AgentHandle, SAgent};
use curb_assign::{solve, Assignment};
use curb_consensus::Batch;
use curb_core::config::PlaneMode;
use curb_core::{CurbConfig, Epoch, SetupError, Shared, SwitchId};
use curb_crypto::rng::DetRng;
use curb_crypto::KeyPair;
use curb_graph::{DelayModel, Internet2};
use curb_net::{MuxTransport, ReactorConfig};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

/// Everything needed to launch a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Protocol configuration (f, thresholds, solver knobs, seed —
    /// the seed doubles as the wire-level cluster instance id).
    pub curb: CurbConfig,
    /// Per-controller fault injection; missing entries are honest.
    pub behaviors: Vec<NodeBehavior>,
    /// Node tuning (runner, drain grace, polling).
    pub node: NodeConfig,
    /// Agent request timeout (drives the audit).
    pub request_timeout: Duration,
    /// Event-loop threads per node backbone: exactly 1.
    /// [`Cluster::launch_with`] panics on any other value.
    pub shards: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            curb: CurbConfig::default(),
            behaviors: Vec::new(),
            node: NodeConfig::default(),
            request_timeout: Duration::from_secs(2),
            shards: 1,
        }
    }
}

/// The Step-0 artifacts shared by every node.
pub struct Bootstrap {
    /// Immutable shared state (config, keys, delays, routing).
    pub shared: Arc<Shared>,
    /// The initial epoch (OP assignment, groups, final committee).
    pub epoch: Arc<Epoch>,
}

/// Runs Step 0 on `topo`: identities, delay matrices, routing table,
/// the initial OP assignment and the epoch derived from it. This is
/// the same initialisation the simulator performs, minus the
/// discrete-event network.
///
/// # Errors
///
/// [`SetupError`] if the topology is empty or the assignment is
/// infeasible.
pub fn bootstrap(topo: &Internet2, config: CurbConfig) -> Result<Bootstrap, SetupError> {
    let shared = build_shared(topo, config)?;
    let plan = shared.plan;
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
    finish_bootstrap(shared, assignment)
}

/// Like [`bootstrap`], but skips the CAP solver and deals the
/// controllers into exactly `n_groups` disjoint groups of `3f + 1`,
/// assigning switches round-robin. Deterministic deployment layout for
/// benchmarks and CI smoke runs whose assertions need a known group
/// structure; RE-ASS re-solves still go through the real solver.
///
/// # Errors
///
/// [`SetupError`] if the topology is empty or there are fewer than
/// `n_groups * (3f + 1)` controllers.
pub fn bootstrap_pinned(
    topo: &Internet2,
    config: CurbConfig,
    n_groups: usize,
) -> Result<Bootstrap, SetupError> {
    let shared = build_shared(topo, config)?;
    let plan = shared.plan;
    let group_size = 3 * shared.config.f + 1;
    if n_groups == 0 || n_groups * group_size > plan.n_controllers {
        return Err(SetupError::EmptyTopology);
    }
    let groups: Vec<Vec<usize>> = (0..n_groups)
        .map(|g| (g * group_size..(g + 1) * group_size).collect())
        .collect();
    let per_switch: Vec<Vec<usize>> = (0..plan.n_switches)
        .map(|s| groups[s % n_groups].clone())
        .collect();
    let assignment = Assignment::from_groups(per_switch, plan.n_controllers);
    finish_bootstrap(shared, assignment)
}

fn finish_bootstrap(shared: Arc<Shared>, assignment: Assignment) -> Result<Bootstrap, SetupError> {
    let removed = vec![false; shared.plan.n_controllers];
    let epoch = Arc::new(Epoch::build(
        assignment,
        &shared.keys,
        shared.config.f,
        removed,
    ));
    Ok(Bootstrap { shared, epoch })
}

fn build_shared(topo: &Internet2, config: CurbConfig) -> Result<Arc<Shared>, SetupError> {
    let controller_sites: Vec<usize> = topo.controllers().collect();
    let switch_sites: Vec<usize> = topo.switches().collect();
    if controller_sites.is_empty() || switch_sites.is_empty() {
        return Err(SetupError::EmptyTopology);
    }
    let plan = curb_core::NodePlan {
        n_controllers: controller_sites.len(),
        n_switches: switch_sites.len(),
    };
    let model = DelayModel::paper_default();
    let km_table = topo.graph.all_pairs();
    let ms = |a: usize, b: usize| model.propagation(km_table[a][b]).as_secs_f64() * 1_000.0;

    let cs_delay_ms: Vec<Vec<f64>> = switch_sites
        .iter()
        .map(|&s| controller_sites.iter().map(|&c| ms(s, c)).collect())
        .collect();
    let cc_delay_ms: Vec<Vec<f64>> = controller_sites
        .iter()
        .map(|&a| controller_sites.iter().map(|&b| ms(a, b)).collect())
        .collect();

    let mut next_hop_port = vec![vec![0u16; plan.n_switches]; plan.n_switches];
    for (i, &site) in switch_sites.iter().enumerate() {
        let neighbors: Vec<usize> = topo.graph.neighbors(site).map(|(n, _)| n).collect();
        for (j, &dst_site) in switch_sites.iter().enumerate() {
            if i == j {
                continue;
            }
            if let Some((_, path)) = topo.graph.shortest_path(site, dst_site) {
                let first_hop = path[1];
                if let Some(port) = neighbors.iter().position(|&n| n == first_hop) {
                    next_hop_port[i][j] = (port + 1) as u16;
                }
            }
        }
    }

    let mut rng = DetRng::new(config.seed);
    let controller_keys: Vec<KeyPair> = (0..plan.n_controllers)
        .map(|_| KeyPair::generate(&mut rng))
        .collect();
    let public_keys = controller_keys.iter().map(|k| k.public()).collect();

    Ok(Arc::new(Shared {
        config,
        plan,
        keys: public_keys,
        cs_delay_ms,
        cc_delay_ms,
        next_hop_port,
    }))
}

/// A running cluster: every controller node plus one s-agent per
/// switch, all on loopback TCP.
pub struct Cluster {
    /// Step-0 shared state.
    pub shared: Arc<Shared>,
    /// The initial epoch (nodes rotate independently after RE-ASS).
    pub epoch0: Arc<Epoch>,
    /// Controller node handles, by controller id.
    pub nodes: Vec<NodeHandle>,
    /// S-agent handles, by switch id.
    pub agents: Vec<AgentHandle>,
    /// Merged event stream from every agent.
    pub events: Receiver<(SwitchId, AgentEvent)>,
    /// Per-node backbone link-fault handles (index = controller id),
    /// captured before each mux moved into its node. The scenario
    /// driver's [`FaultPlane`](crate::FaultPlane) wraps these.
    pub faults: Vec<Arc<curb_net::LinkFaults>>,
    /// Per-node metric registries (index = controller id) — each
    /// node's consensus runners publish into its own.
    pub registries: Vec<curb_telemetry::Registry>,
    /// Per-node introspection endpoints (index = controller id): the
    /// `health`/`metrics`/`flight` line protocol, queryable with
    /// [`crate::introspect::query`].
    pub introspect: Vec<IntrospectServer>,
}

impl Cluster {
    /// Bootstraps and launches the full cluster on `topo`.
    ///
    /// # Errors
    ///
    /// [`SetupError`] if Step 0 fails; listener/bind failures panic
    /// (they indicate a broken test environment, not protocol state).
    ///
    /// # Panics
    ///
    /// Panics if loopback listeners cannot be bound.
    pub fn launch(topo: &Internet2, cfg: ClusterConfig) -> Result<Cluster, SetupError> {
        let boot = bootstrap(topo, cfg.curb.clone())?;
        Ok(Cluster::launch_with(boot, &cfg))
    }

    /// Launches the cluster from an already-built [`Bootstrap`] — e.g.
    /// the pinned layout of [`bootstrap_pinned`].
    ///
    /// # Panics
    ///
    /// Panics if loopback listeners cannot be bound, or if
    /// `cfg.shards` is not 1.
    pub fn launch_with(boot: Bootstrap, cfg: &ClusterConfig) -> Cluster {
        assert_eq!(
            cfg.shards, 1,
            "a node backbone runs exactly one event loop; ClusterConfig::shards must be 1"
        );
        let Bootstrap { shared, epoch } = boot;
        let n = shared.plan.n_controllers;

        // One backbone listener + one southbound listener per node,
        // all ephemeral loopback ports.
        let backbone: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind backbone listener"))
            .collect();
        let backbone_addrs: Vec<SocketAddr> = backbone
            .iter()
            .map(|l| l.local_addr().expect("backbone addr"))
            .collect();
        let southbound: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind southbound listener"))
            .collect();
        let sb_addrs: Vec<SocketAddr> = southbound
            .iter()
            .map(|l| l.local_addr().expect("southbound addr"))
            .collect();

        let reactor_cfg = ReactorConfig {
            // The protocol seed doubles as the cluster instance id:
            // nodes of a differently-seeded cluster are rejected at
            // the wire handshake.
            group_id: shared.config.seed,
            ..ReactorConfig::default()
        };

        let mut nodes = Vec::with_capacity(n);
        let mut faults = Vec::with_capacity(n);
        let mut registries = Vec::with_capacity(n);
        let mut introspect = Vec::with_capacity(n);
        for (c, (listener, sb_listener)) in backbone.into_iter().zip(southbound).enumerate() {
            // A fresh registry per node: cloning the one in `cfg.node`
            // would share a single store across every controller. The
            // backbone publishes its `net.*` metrics into it too.
            let registry = curb_telemetry::Registry::new();
            let mux: MuxTransport<Batch<CtrlPayload>> = MuxTransport::bind_with_registry(
                c,
                listener,
                backbone_addrs.clone(),
                reactor_cfg.clone(),
                registry.clone(),
            )
            .expect("bind mux transport");
            // Grab the fault handle before the mux moves into the
            // node; it stays valid for the transport's lifetime.
            faults.push(mux.faults());
            let mut node_cfg = NodeConfig {
                behavior: cfg.behaviors.get(c).copied().unwrap_or_default(),
                registry: registry.clone(),
                ..cfg.node.clone()
            };
            // One store per controller: `NodeConfig::persist` names the
            // cluster's directory, node `c` owns `ctrl{c}` under it.
            if let Some(persist) = &mut node_cfg.persist {
                persist.dir.push(format!("ctrl{c}"));
            }
            let node = ControllerNode::spawn(
                c,
                Arc::clone(&shared),
                Arc::clone(&epoch),
                mux,
                sb_listener,
                node_cfg,
            );
            introspect.push(IntrospectServer::spawn(IntrospectState {
                node: format!("ctrl{c}"),
                registry: registry.clone(),
                probe: Arc::clone(&node.probe),
            }));
            registries.push(registry);
            nodes.push(node);
        }

        let (events_tx, events) = channel();
        let mut agents = Vec::with_capacity(shared.plan.n_switches);
        for s in 0..shared.plan.n_switches {
            let sid = SwitchId(s);
            agents.push(SAgent::spawn(
                sid,
                Arc::clone(&shared),
                cfg.request_timeout,
                epoch.ctrl_list(sid).to_vec(),
                sb_addrs.clone(),
                events_tx.clone(),
            ));
        }

        Cluster {
            shared,
            epoch0: epoch,
            nodes,
            agents,
            events,
            faults,
            registries,
            introspect,
        }
    }

    /// The introspection endpoint addresses, by controller id.
    pub fn introspect_addrs(&self) -> Vec<std::net::SocketAddr> {
        self.introspect.iter().map(|s| s.addr()).collect()
    }

    /// Raises a PACKET_IN at switch `switch` for `dst_host`.
    pub fn pkt_in(&self, switch: SwitchId, dst_host: u32) {
        if let Some(agent) = self.agents.get(switch.0) {
            agent.pkt_in(dst_host);
        }
    }

    /// The highest chain height any node reports.
    pub fn max_height(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.probe.height.load(std::sync::atomic::Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// The highest epoch number any node reports.
    pub fn max_epoch(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.probe.epoch.load(std::sync::atomic::Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Stops every agent, node and introspection endpoint.
    pub fn shutdown(self) {
        for agent in self.agents {
            agent.join();
        }
        for node in self.nodes {
            node.join();
        }
        for server in self.introspect {
            server.join();
        }
    }
}
