//! A controller node: one OS-level process image of the Curb control
//! plane, speaking real TCP in every direction.
//!
//! Each node hosts, over **one** shared [`MuxTransport`]:
//!
//! * one intra-group PBFT instance ([`NetRunner`] + `Replica`) per
//!   controller group the node belongs to (a controller can serve
//!   several groups under the CAP assignment),
//! * one final-committee PBFT instance when the node sits on the final
//!   committee,
//! * the app lane for east-west [`ClusterMsg`] traffic (`AGREE`
//!   hand-offs and block announcements).
//!
//! Southbound, the node accepts s-agent connections on a second
//! listener and answers committed requests with [`SbMsg::Reply`].
//!
//! # Round workflow (paper Steps 1–4)
//!
//! 1. An s-agent broadcasts a request to every controller of its
//!    group; the group leader computes the configuration (flow rules
//!    via the shared routing table, reassignments via the CAP solver)
//!    and proposes a transaction list on the group's lane.
//! 2. The group commits the list (intra-group PBFT).
//! 3. The group leader hands the committed list to the final-committee
//!    leader, which cuts a block and proposes it on the final lane.
//! 4. The committee commits and appends the block; every committee
//!    member announces it; all assigned controllers REPLY to the
//!    issuing s-agent, which accepts on `f + 1` identical configs.
//!
//! A committed `NewAssignment` rotates the epoch **live**: new lanes
//! (epoch-scoped ids) and runners spin up immediately, while the old
//! epoch's runners keep draining in-flight rounds until a grace
//! deadline, then shut down — late frames for retired lanes are fenced
//! by the transport's routing table.

use crate::payload::CtrlPayload;
use crate::persist::{ChainStore, PersistConfig};
use crate::sagent::wall_clock_us;
use crate::wire::{push_sb_frame, sb_stream, ClusterMsg, SbMsg, SB_MAX_FRAME};
use curb_assign::{solve, Assignment};
use curb_chain::{Block, ChainHead, SeqWindow, Transaction};
use curb_consensus::{Batch, Replica};
use curb_core::{BlockPayload, FlowRuleSpec, ANNOUNCE_SEQ_BIT};
use curb_core::{
    ConfigData, Epoch, GroupId, ProtoTx, ReqKind, RequestKey, RequestRecord, Shared, SwitchId,
    TxListPayload,
};
use curb_net::{Lane, MuxTransport, NetRunner, NodeId, RunnerConfig, RunnerHandle, SharedDecoder};
use curb_telemetry::{
    now_nanos, record_event, record_span, record_span_ctx, EventKind, Registry, TraceCtx,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Lane-id stride between epochs: intra-group lanes of epoch `e` are
/// `e * LANE_STRIDE + group`, the final-committee lane is
/// `e * LANE_STRIDE + LANE_STRIDE - 1`. Epoch-scoped ids mean a
/// retired epoch's frames can never reach a live instance.
pub const LANE_STRIDE: u64 = 1 << 16;

/// The consensus lane id of group `group` in epoch `epoch`.
pub fn intra_lane(epoch: u64, group: usize) -> u64 {
    debug_assert!((group as u64) < LANE_STRIDE - 1);
    epoch * LANE_STRIDE + group as u64
}

/// The final-committee lane id of epoch `epoch`.
pub fn final_lane(epoch: u64) -> u64 {
    epoch * LANE_STRIDE + (LANE_STRIDE - 1)
}

/// The record every node's genesis block is built from: the Step-0
/// assignment, so all nodes (and anyone opening a node's archive) derive
/// the identical block 0.
pub fn genesis_record(shared: &Shared, epoch: &Epoch) -> Vec<u8> {
    ConfigData::NewAssignment {
        groups: (0..shared.plan.n_switches)
            .map(|i| epoch.assignment.group(i).iter().copied().collect())
            .collect(),
    }
    .encode()
}

/// Fault-injection behaviour of a cluster controller node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Byzantine: participates in consensus but sends **corrupted**
    /// REPLY configurations to s-agents. Detected by the agents'
    /// `f + 1` reply matching and excluded by live RE-ASS.
    Lying,
    /// Byzantine: never replies to s-agents (reply-silent). Detected
    /// by the agents' request-timeout audit.
    Silent,
}

/// Tuning knobs for a [`ControllerNode`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Per-lane consensus runner configuration.
    pub runner: RunnerConfig,
    /// Fault-injection behaviour.
    pub behavior: NodeBehavior,
    /// How long a retired epoch's runners keep draining in-flight
    /// rounds before shutting down.
    pub drain: Duration,
    /// Idle main-loop sleep.
    pub poll: Duration,
    /// Metrics registry this node's consensus runners publish into.
    /// Cloning a `NodeConfig` *shares* the registry (it is an `Arc`
    /// handle) — hand each node its own for per-node introspection.
    pub registry: Registry,
    /// Durable chain storage. `None` (the default) runs a pruned node
    /// that forgets block bodies below a short tail; `Some` archives
    /// every appended block in the WAL and restores the committed
    /// prefix on restart (see [`crate::persist::ChainStore`]).
    pub persist: Option<PersistConfig>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            runner: RunnerConfig::default(),
            behavior: NodeBehavior::Honest,
            drain: Duration::from_secs(2),
            poll: Duration::from_millis(1),
            registry: Registry::new(),
            persist: None,
        }
    }
}

/// Live counters a test or benchmark can poll without locking the
/// node.
#[derive(Debug, Default)]
pub struct NodeProbe {
    /// Chain height (genesis = 0).
    pub height: AtomicU64,
    /// Current epoch number (initial assignment = 0).
    pub epoch: AtomicU64,
    /// Blocks this node appended.
    pub blocks: AtomicU64,
    /// Requests this node proposed as a group leader.
    pub proposed: AtomicU64,
    /// WAL records written (0 when persistence is off).
    pub wal_records: AtomicU64,
    /// WAL bytes written, framing included (0 when persistence is off).
    pub wal_bytes: AtomicU64,
    /// WAL fsync calls issued (0 when persistence is off).
    pub wal_fsyncs: AtomicU64,
    /// Blocks replayed from the WAL at boot.
    pub restored: AtomicU64,
}

/// Control surface for a spawned [`ControllerNode`].
pub struct NodeHandle {
    /// The controller id.
    pub id: usize,
    /// Live counters.
    pub probe: Arc<NodeProbe>,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// Signals shutdown and waits for the node thread to exit.
    pub fn join(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One epoch's consensus instances on this node.
struct EpochRuntime {
    no: u64,
    epoch: Arc<Epoch>,
    /// `(group id, runner)` for every group this node belongs to.
    intra: Vec<(GroupId, RunnerHandle<CtrlPayload>)>,
    /// The final-committee runner, when this node is on the committee.
    finalr: Option<RunnerHandle<CtrlPayload>>,
}

impl EpochRuntime {
    fn join(self) {
        for (_, r) in self.intra {
            r.join();
        }
        if let Some(r) = self.finalr {
            r.join();
        }
    }
}

/// Southbound events delivered from per-connection reader threads.
enum SbEvent {
    Request {
        switch: usize,
        record: RequestRecord,
        ctx: TraceCtx,
    },
}

/// Trace contexts a node remembers for rounds awaiting their REPLY —
/// far more than are ever in flight; the oldest is forgotten first.
const ROUND_CTXS_MAX: usize = 1 << 14;

/// How far a request's sequence number may run ahead of a node's wall
/// clock, in µs. Agents number from their host's clock at start-up and
/// issue fewer than one request per µs, so an honest sequence number
/// is at most that clock; the slack covers the skew between hosts.
/// The southbound `Hello` is not authenticated: without this bound one
/// forged request with a sequence number near `u64::MAX` would lift
/// its switch's window above every request the real agent will send.
const SEQ_CLOCK_SLACK_US: u64 = 10_000_000;

/// The highest sequence number a node takes from any switch now.
fn seq_ceiling() -> u64 {
    wall_clock_us().saturating_add(SEQ_CLOCK_SLACK_US)
}

/// Intake's at-most-once rule: a request is taken if its sequence
/// number is at most `ceiling` (see [`seq_ceiling`]) and fresh in its
/// switch's window. One from the future leaves the window as it was.
fn fresh_at_intake(seen: &mut SeqWindow, seq: u64, ceiling: u64) -> bool {
    seq <= ceiling && seen.insert(seq)
}

/// Splits the final leader's queue into the chain transactions of the
/// next block, by request key, and the keys of the requests left out:
/// those the chain would reject — committed already, say by the leader
/// of a retired epoch, or queued twice — and those sequenced above
/// `ceiling` (see [`seq_ceiling`]). The split runs the chain's own
/// admission rule against `head`, so one stale request never sinks a
/// block and every round in it.
fn block_txs(
    head: &ChainHead,
    queue: Vec<ProtoTx>,
    ceiling: u64,
) -> (Vec<(RequestKey, Transaction)>, Vec<RequestKey>) {
    let mut admission = head.admission();
    let mut stale = Vec::new();
    let fresh = queue
        .into_iter()
        .filter_map(|t| {
            let tx = t.to_chain_tx();
            if t.record.key.seq <= ceiling && admission.admit(&tx).is_ok() {
                Some((t.record.key, tx))
            } else {
                stale.push(t.record.key);
                None
            }
        })
        .collect();
    (fresh, stale)
}

/// A proposed block's tracing state on the final leader: hash, propose
/// time, and the traced rounds the block carries.
type FinalSpan = ([u8; 32], u64, Vec<(RequestKey, TraceCtx)>);

/// The node state machine; owned by the node's main thread.
pub struct ControllerNode {
    id: usize,
    shared: Arc<Shared>,
    cfg: NodeConfig,
    mux: MuxTransport<Batch<CtrlPayload>>,
    chain: ChainStore,
    active: EpochRuntime,
    draining: Vec<(Instant, EpochRuntime)>,
    removed: Vec<bool>,
    /// Requests already proposed (as leader) or relayed (as follower),
    /// by switch — at-most-once intake, by the chain's own window.
    seen: Vec<SeqWindow>,
    /// Group-leader spans: (propose time, minted context) per key.
    intra_start: HashMap<RequestKey, (u64, TraceCtx)>,
    /// Trace contexts of rounds this node serves, kept so the eventual
    /// REPLY can be stamped with the round's correlation key.
    round_ctxs: HashMap<RequestKey, TraceCtx>,
    /// Insertion order of `round_ctxs`, holding it to
    /// [`ROUND_CTXS_MAX`]: a request copy that arrives after its round
    /// committed leaves a context no REPLY will ever claim.
    round_ctx_order: VecDeque<RequestKey>,
    /// Final-leader queue of intra-committed transactions.
    pending_txs: Vec<ProtoTx>,
    pending_keys: HashSet<RequestKey>,
    /// Trace contexts of queued transactions, by key.
    pending_ctxs: HashMap<RequestKey, TraceCtx>,
    block_in_flight: bool,
    /// Final-leader span: (proposed block hash, propose time, the
    /// traced rounds the block carries).
    final_start: Option<FinalSpan>,
    /// Block announcements from committee members, keyed by hash.
    votes: BTreeMap<[u8; 32], (Block, BTreeSet<NodeId>)>,
    /// Southbound reply sockets by switch id, tagged with the
    /// registration token of the connection that installed them (see
    /// `southbound_reader`'s exit path).
    sb_conns: Arc<Mutex<HashMap<usize, (u64, TcpStream)>>>,
    sb_rx: Receiver<SbEvent>,
    probe: Arc<NodeProbe>,
    shutdown: Arc<AtomicBool>,
}

impl ControllerNode {
    /// Spawns controller `id` on its own thread.
    ///
    /// `mux` must be bound to this node's slot in the cluster address
    /// list; `southbound` is the s-agent-facing listener. `epoch` is
    /// the Step-0 assignment every node starts from (epoch 0) and also
    /// determines the genesis block, so all nodes boot with identical
    /// chains.
    ///
    /// # Panics
    ///
    /// Panics if the southbound listener cannot be configured or the
    /// node thread cannot be spawned.
    pub fn spawn(
        id: usize,
        shared: Arc<Shared>,
        epoch: Arc<Epoch>,
        mux: MuxTransport<Batch<CtrlPayload>>,
        southbound: TcpListener,
        cfg: NodeConfig,
    ) -> NodeHandle {
        let shutdown = Arc::new(AtomicBool::new(false));
        let probe = Arc::new(NodeProbe::default());
        let sb_conns: Arc<Mutex<HashMap<usize, (u64, TcpStream)>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let (sb_tx, sb_rx) = channel();

        southbound
            .set_nonblocking(true)
            .expect("southbound listener nonblocking");
        {
            let conns = Arc::clone(&sb_conns);
            let flag = Arc::clone(&shutdown);
            let poll = cfg.poll.max(Duration::from_millis(1));
            thread::Builder::new()
                .name(format!("curb-node-{id}-southbound"))
                .spawn(move || southbound_accept_loop(southbound, conns, sb_tx, flag, poll))
                .expect("spawn southbound acceptor");
        }

        let genesis_record = genesis_record(&shared, &epoch);
        let chain = match &cfg.persist {
            Some(persist) => ChainStore::open(persist.clone(), &genesis_record)
                .expect("open durable chain store"),
            None => ChainStore::ephemeral(&genesis_record),
        };
        // A durable store may restore committed blocks from disk;
        // surface the restored prefix to pollers immediately.
        probe.height.store(chain.height(), Ordering::Relaxed);
        probe
            .restored
            .store(chain.recovery().wal_replayed, Ordering::Relaxed);

        let flag = Arc::clone(&shutdown);
        let probe2 = Arc::clone(&probe);
        let thread = thread::Builder::new()
            .name(format!("curb-node-{id}"))
            .spawn(move || {
                // Name this thread's spans after the node: per-node
                // trace files are split on this label.
                curb_telemetry::set_thread_node(format!("ctrl{id}"));
                let removed = epoch.removed.clone();
                let seen = std::iter::repeat_with(SeqWindow::default)
                    .take(shared.plan.n_switches)
                    .collect();
                let active =
                    build_runtime(id, 0, Arc::clone(&epoch), &mux, &cfg.runner, &cfg.registry);
                let mut node = ControllerNode {
                    id,
                    shared,
                    cfg,
                    mux,
                    chain,
                    active,
                    draining: Vec::new(),
                    removed,
                    seen,
                    intra_start: HashMap::new(),
                    round_ctxs: HashMap::new(),
                    round_ctx_order: VecDeque::new(),
                    pending_txs: Vec::new(),
                    pending_keys: HashSet::new(),
                    pending_ctxs: HashMap::new(),
                    block_in_flight: false,
                    final_start: None,
                    votes: BTreeMap::new(),
                    sb_conns,
                    sb_rx,
                    probe: probe2,
                    shutdown: flag,
                };
                node.run();
            })
            .expect("spawn controller node");

        NodeHandle {
            id,
            probe,
            shutdown,
            thread: Some(thread),
        }
    }

    fn run(&mut self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            let mut progress = false;
            while let Ok(SbEvent::Request {
                switch,
                record,
                ctx,
            }) = self.sb_rx.try_recv()
            {
                self.on_request(SwitchId(switch), record, ctx);
                progress = true;
            }
            while let Some(ev) = self.mux.recv_app(Duration::ZERO) {
                if let Some(msg) = ClusterMsg::decode(&ev.bytes) {
                    self.on_cluster_msg(ev.from, msg);
                    progress = true;
                }
            }
            progress |= self.pump_decisions();
            self.retire_drained();
            self.try_propose_block();
            if !progress {
                thread::sleep(self.cfg.poll);
            }
        }
        let epoch = Arc::clone(&self.active.epoch);
        let active = std::mem::replace(
            &mut self.active,
            EpochRuntime {
                no: u64::MAX,
                epoch,
                intra: Vec::new(),
                finalr: None,
            },
        );
        active.join();
        for (_, rt) in self.draining.drain(..) {
            rt.join();
        }
        self.mux.shutdown();
        // This thread recorded cluster.intra/cluster.final spans into
        // the thread-local buffer; hand them to the sink before exit.
        curb_telemetry::flush_thread();
    }

    /// Step 1→2: a request arrived southbound; the group leader
    /// computes the configuration and proposes it on the group's lane.
    fn on_request(&mut self, switch: SwitchId, record: RequestRecord, ctx: TraceCtx) {
        if switch.0 >= self.shared.plan.n_switches || record.key.switch != switch {
            return;
        }
        let epoch = Arc::clone(&self.active.epoch);
        if !epoch.ctrl_list(switch).contains(&self.id) {
            // The issuing agent is homed on a stale epoch's controller
            // list (it missed the rotation's announcement — they are
            // delivered once, best-effort). Silence here would strand
            // it forever, so answer with the *current* assignment
            // under the announce key: once `f + 1` stale-list members
            // send the identical hint, the agent's usual announcement
            // matcher re-homes it.
            self.rehome_hint(switch);
            return;
        }
        if ctx.is_some() {
            // Every serving member remembers the round's context: the
            // REPLY it sends after the final commit echoes it back.
            if self.round_ctxs.insert(record.key, ctx).is_none() {
                self.round_ctx_order.push_back(record.key);
                if self.round_ctx_order.len() > ROUND_CTXS_MAX {
                    let oldest = self.round_ctx_order.pop_front().expect("non-empty");
                    self.round_ctxs.remove(&oldest);
                }
            }
        }
        let gid = epoch.group_of(switch);
        let leader = epoch.groups[gid.0].leader();
        if leader != self.id {
            // PBFT's client-request relay: a follower cannot propose,
            // but dropping the request would wedge an agent whose
            // stale controller list still overlaps the current group
            // yet misses its leader. Hand it to the controller that
            // can propose it; `seen` caps the relay at once per key.
            if fresh_at_intake(&mut self.seen[switch.0], record.key.seq, seq_ceiling()) {
                self.mux
                    .send_app(leader, &ClusterMsg::Forward { record, ctx }.encode());
            }
            return;
        }
        if !fresh_at_intake(&mut self.seen[switch.0], record.key.seq, seq_ceiling()) {
            return;
        }
        let Some(config) = self.compute_config(&record) else {
            return;
        };
        let tx = ProtoTx {
            record,
            handled_by: self.id,
            config,
        };
        let key = tx.record.key;
        if let Some((_, runner)) = self.active.intra.iter().find(|(g, _)| *g == gid) {
            self.intra_start.insert(key, (now_nanos(), ctx));
            let payload = CtrlPayload::Txs {
                txs: TxListPayload(vec![tx]),
                // Hop 1: the round entered the intra-group lane.
                ctxs: vec![ctx.next_hop()],
            };
            if runner.propose(payload) {
                self.probe.proposed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `ComputeConfig` (Algorithm 2): routing-table flow rules for
    /// PKT-IN, a CAP re-solve with accused controllers excluded for
    /// RE-ASS.
    fn compute_config(&self, record: &RequestRecord) -> Option<ConfigData> {
        let epoch = &self.active.epoch;
        match &record.kind {
            ReqKind::PktIn { dst_host } => {
                let src = record.key.switch;
                let dst = self.shared.dst_switch(*dst_host);
                let out_port = self.shared.next_hop_port[src.0][dst.0];
                Some(ConfigData::FlowRules(vec![FlowRuleSpec {
                    priority: 10,
                    dst_host: *dst_host,
                    out_port,
                }]))
            }
            ReqKind::ReAss { accused } => {
                let accused: Vec<usize> = accused
                    .iter()
                    .copied()
                    .filter(|&c| c < self.shared.plan.n_controllers)
                    .collect();
                let accused_set: BTreeSet<usize> = accused.iter().copied().collect();
                let leader_pins: Vec<Option<usize>> = (0..self.shared.plan.n_switches)
                    .map(|s| {
                        let leader = epoch.groups[epoch.group_of(SwitchId(s)).0].leader();
                        (!accused_set.contains(&leader)).then_some(leader)
                    })
                    .collect();
                let (model, options) = self.shared.reassignment_problem(
                    &epoch.removed,
                    &accused,
                    &leader_pins,
                    &epoch.assignment,
                );
                let solution = solve(&model, &options).ok()?;
                Some(ConfigData::NewAssignment {
                    groups: (0..self.shared.plan.n_switches)
                        .map(|i| solution.assignment.group(i).iter().copied().collect())
                        .collect(),
                })
            }
        }
    }

    /// Polls every runner (active and draining) for decisions.
    fn pump_decisions(&mut self) -> bool {
        let mut progress = false;
        // Collect first to end the borrow of the runtimes, then act.
        let mut intra_committed: Vec<(u64, GroupId, TxListPayload, Vec<TraceCtx>)> = Vec::new();
        let mut final_committed: Vec<(u64, BlockPayload)> = Vec::new();
        {
            let runtimes =
                std::iter::once(&self.active).chain(self.draining.iter().map(|(_, rt)| rt));
            for rt in runtimes {
                for (gid, runner) in &rt.intra {
                    while let Ok(d) = runner.decisions.try_recv() {
                        if let CtrlPayload::Txs { txs, ctxs } = d.payload {
                            if !txs.0.is_empty() {
                                intra_committed.push((rt.no, *gid, txs, ctxs));
                            }
                        }
                    }
                }
                if let Some(runner) = &rt.finalr {
                    while let Ok(d) = runner.decisions.try_recv() {
                        if let CtrlPayload::Block(b) = d.payload {
                            final_committed.push((rt.no, b));
                        }
                    }
                }
            }
        }
        for (no, gid, txs, ctxs) in intra_committed {
            progress = true;
            self.on_intra_commit(no, gid, txs, ctxs);
        }
        for (no, block) in final_committed {
            progress = true;
            self.on_final_commit(no, block);
        }
        progress
    }

    /// Step 3: the group agreed on a transaction list. The group
    /// leader hands it to the final-committee leader.
    fn on_intra_commit(
        &mut self,
        epoch_no: u64,
        gid: GroupId,
        txs: TxListPayload,
        ctxs: Vec<TraceCtx>,
    ) {
        let rt_epoch = self
            .runtime_epoch(epoch_no)
            .unwrap_or_else(|| Arc::clone(&self.active.epoch));
        // Decoders enforce one context per transaction, but keep the
        // invariant locally too — a short list would desync the zip.
        let mut ctxs = ctxs;
        ctxs.resize(txs.0.len(), TraceCtx::NONE);
        let end = now_nanos();
        for (tx, ctx) in txs.0.iter().zip(&ctxs) {
            if let Some((start, _)) = self.intra_start.remove(&tx.record.key) {
                record_span_ctx(
                    "cluster.intra",
                    start,
                    end,
                    self.id as i64,
                    tx.record.key.seq as i64,
                    *ctx,
                );
            }
        }
        if rt_epoch.groups[gid.0].leader() != self.id {
            return;
        }
        // Hand off to the *current* epoch's final leader: the final
        // committee may have rotated while this round was in flight.
        let target = self.active.epoch.final_leader();
        let msg = ClusterMsg::Agree {
            epoch: self.active.no,
            group: gid.0 as u64,
            // Hop 2: the round crossed into the final-committee lane.
            ctxs: ctxs.iter().map(|c| c.next_hop()).collect(),
            txs,
        };
        if target == self.id {
            self.on_cluster_msg(self.id, msg);
        } else {
            self.mux.send_app(target, &msg.encode());
        }
    }

    fn on_cluster_msg(&mut self, from: NodeId, msg: ClusterMsg) {
        match msg {
            ClusterMsg::Agree { ctxs, txs, .. } => {
                if self.active.epoch.final_leader() != self.id {
                    return;
                }
                for (i, tx) in txs.0.into_iter().enumerate() {
                    if self.pending_keys.insert(tx.record.key) {
                        if let Some(ctx) = ctxs.get(i).copied().filter(|c| c.is_some()) {
                            self.pending_ctxs.insert(tx.record.key, ctx);
                        }
                        self.pending_txs.push(tx);
                    }
                }
                self.try_propose_block();
            }
            ClusterMsg::FinalBlock { epoch, block } => {
                self.on_block_announcement(from, epoch, block);
            }
            ClusterMsg::Forward { record, ctx } => {
                // A follower relayed a southbound request it could not
                // propose; treat it exactly like a direct arrival. If
                // the epoch rotated again in flight this re-routes (or
                // re-homes) under the now-active assignment — the
                // per-key dedup in `on_request` stops relay loops.
                self.on_request(record.key.switch, record, ctx);
            }
        }
    }

    /// Step 4a: the final-committee leader cuts the next block from
    /// the queued transaction lists — one block in flight at a time so
    /// blocks always extend the tip they were proposed against. A
    /// request the chain would reject, or one sequenced from the
    /// future, is left out (see [`block_txs`]) and counted in
    /// `node.stale_txs`.
    fn try_propose_block(&mut self) {
        if self.block_in_flight
            || self.pending_txs.is_empty()
            || self.active.epoch.final_leader() != self.id
        {
            return;
        }
        let Some(runner) = &self.active.finalr else {
            return;
        };
        let queue = std::mem::take(&mut self.pending_txs);
        let (fresh, stale) = block_txs(self.chain.head(), queue, seq_ceiling());
        for key in &stale {
            self.pending_keys.remove(key);
            self.pending_ctxs.remove(key);
        }
        if !stale.is_empty() {
            let counter = self.cfg.registry.counter("node.stale_txs");
            counter.add(stale.len() as u64);
        }
        if fresh.is_empty() {
            return;
        }
        let mut rounds = Vec::with_capacity(fresh.len());
        let mut txs = Vec::with_capacity(fresh.len());
        for (key, tx) in fresh {
            let ctx = self.pending_ctxs.remove(&key).unwrap_or(TraceCtx::NONE);
            if ctx.is_some() {
                rounds.push((key, ctx));
            }
            txs.push(tx);
        }
        let block = Block::next(self.chain.tip(), txs, now_nanos());
        self.final_start = Some((block.hash().0, now_nanos(), rounds));
        self.block_in_flight = true;
        runner.propose(CtrlPayload::Block(BlockPayload(Some(block))));
    }

    /// Step 4b: the final committee committed a block proposal.
    fn on_final_commit(&mut self, epoch_no: u64, payload: BlockPayload) {
        let is_leader_epoch =
            epoch_no == self.active.no && self.active.epoch.final_leader() == self.id;
        if is_leader_epoch {
            // Leader or not, a decision un-blocks the pipeline: the
            // next queued block can only build on the new tip.
            self.block_in_flight = false;
        }
        let Some(block) = payload.0 else {
            self.try_propose_block();
            return;
        };
        if self.append_block(block.clone()) {
            // Announce to nodes outside the committee (and re-assure
            // those inside): f + 1 matching announcements let a
            // non-member adopt the block without trusting any single
            // controller.
            self.mux.broadcast_app(
                &ClusterMsg::FinalBlock {
                    epoch: epoch_no,
                    block,
                }
                .encode(),
            );
        }
        self.try_propose_block();
    }

    fn on_block_announcement(&mut self, from: NodeId, epoch_no: u64, block: Block) {
        let Some(epoch) = self.runtime_epoch(epoch_no) else {
            return;
        };
        self.on_block_vote_with(&epoch.final_com, from, block);
    }

    fn on_block_vote_with(&mut self, committee: &[usize], from: NodeId, block: Block) {
        if !committee.contains(&from) {
            return;
        }
        if block.header.height <= self.chain.height() {
            return;
        }
        let hash = block.hash().0;
        let entry = self
            .votes
            .entry(hash)
            .or_insert_with(|| (block, BTreeSet::new()));
        entry.1.insert(from);
        let quorum = self.shared.config.f + 1;
        if entry.1.len() < quorum {
            return;
        }
        // Announcers differ from height to height, so a block's quorum
        // can complete before its parent's does. Nobody announces it
        // again: once the parent lands, append every buffered
        // successor that already has its quorum.
        let mut next = Some(entry.0.clone());
        while let Some(block) = next.take() {
            if !self.append_block(block) {
                break;
            }
            let height = self.chain.height();
            self.votes.retain(|_, (b, _)| b.header.height > height);
            next = self
                .votes
                .values()
                .find(|(b, voters)| b.header.height == height + 1 && voters.len() >= quorum)
                .map(|(b, _)| b.clone());
        }
    }

    /// Appends `block` if it extends the local tip; on success, runs
    /// the post-commit duties (REPLY, epoch rotation).
    fn append_block(&mut self, block: Block) -> bool {
        if block.header.height != self.chain.height() + 1 {
            return false;
        }
        if self.chain.append(block.clone()).is_err() {
            return false;
        }
        self.probe
            .height
            .store(self.chain.height(), Ordering::Relaxed);
        self.probe.blocks.fetch_add(1, Ordering::Relaxed);
        let wal = self.chain.wal_stats();
        self.probe.wal_records.store(wal.records, Ordering::Relaxed);
        self.probe.wal_bytes.store(wal.bytes, Ordering::Relaxed);
        self.probe.wal_fsyncs.store(wal.fsyncs, Ordering::Relaxed);
        if let Some((hash, start, rounds)) = self.final_start.take() {
            if hash == block.hash().0 {
                let end = now_nanos();
                record_span(
                    "cluster.final",
                    start,
                    end,
                    self.id as i64,
                    block.header.height as i64,
                );
                // One tagged span per traced round the block carried,
                // so cross-node assembly can place the final-committee
                // leg on each round's critical path.
                for (key, ctx) in rounds {
                    record_span_ctx(
                        "cluster.final_round",
                        start,
                        end,
                        self.id as i64,
                        key.seq as i64,
                        ctx,
                    );
                }
            } else {
                self.final_start = Some((hash, start, rounds));
            }
        }
        self.handle_committed(&block);
        self.publish_gauges();
        true
    }

    /// Publishes what grows with the rounds this node has served into
    /// its registry (and so its `health` line), once per block: block
    /// bodies the chain store holds and contexts of rounds awaiting a
    /// REPLY.
    fn publish_gauges(&self) {
        let gauge = |name, v: usize| self.cfg.registry.gauge(name).set(v as i64);
        gauge("chain.resident_blocks", self.chain.resident_blocks());
        gauge("node.round_ctxs", self.round_ctxs.len());
    }

    /// Post-commit: REPLY to the issuing s-agents and apply any
    /// committed reassignment.
    fn handle_committed(&mut self, block: &Block) {
        let mut rotation: Option<(Vec<Vec<usize>>, Vec<usize>)> = None;
        // One write per switch per block, not one per reply: the
        // southbound sockets send without Nagle delay.
        let mut replies: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        for chain_tx in &block.txs {
            let Some(tx) = ProtoTx::from_chain_tx(chain_tx) else {
                continue;
            };
            let switch = tx.record.key.switch;
            let round_ctx = self
                .round_ctxs
                .remove(&tx.record.key)
                .unwrap_or(TraceCtx::NONE);
            if switch.0 < self.shared.plan.n_switches
                && self.active.epoch.ctrl_list(switch).contains(&self.id)
                && self.cfg.behavior != NodeBehavior::Silent
            {
                let config = match self.cfg.behavior {
                    NodeBehavior::Lying => corrupt(&tx.config),
                    _ => tx.config.clone(),
                };
                // Hop back: the stored hop-0 context, advanced once,
                // marks the REPLY leg.
                let reply = self.reply(tx.record.key, config, round_ctx.next_hop());
                push_sb_frame(replies.entry(switch.0).or_default(), &reply);
            }
            self.intra_start.remove(&tx.record.key);
            self.pending_keys.remove(&tx.record.key);
            self.pending_ctxs.remove(&tx.record.key);
            if let ConfigData::NewAssignment { groups } = &tx.config {
                let accused = match &tx.record.kind {
                    ReqKind::ReAss { accused } => accused.clone(),
                    _ => Vec::new(),
                };
                rotation = Some((groups.clone(), accused));
            }
        }
        self.send_replies(replies);
        if let Some((groups, accused)) = rotation {
            self.maybe_rotate(groups, accused);
        }
    }

    fn reply(&self, key: RequestKey, config: ConfigData, ctx: TraceCtx) -> SbMsg {
        SbMsg::Reply {
            controller: self.id as u64,
            key,
            config,
            ctx,
        }
    }

    fn reply_to(&self, switch: SwitchId, key: RequestKey, config: ConfigData, ctx: TraceCtx) {
        let mut frame = Vec::new();
        push_sb_frame(&mut frame, &self.reply(key, config, ctx));
        self.send_replies(BTreeMap::from([(switch.0, frame)]));
    }

    /// Writes each switch's reply frames to its connection in one go.
    fn send_replies(&self, replies: BTreeMap<usize, Vec<u8>>) {
        let mut conns = self.sb_conns.lock().expect("southbound registry poisoned");
        for (switch, frames) in replies {
            let Some((_, stream)) = conns.get_mut(&switch) else {
                continue;
            };
            if stream.write_all(&frames).is_err() {
                // A timed-out write may have left half a frame: close
                // the connection, so the agent re-dials.
                let _ = stream.shutdown(Shutdown::Both);
                conns.remove(&switch);
            }
        }
    }

    /// Live RE-ASS: a committed `NewAssignment` rotates the epoch.
    /// New lanes and runners start immediately; the old epoch's
    /// runners drain in-flight rounds until the grace deadline.
    fn maybe_rotate(&mut self, groups: Vec<Vec<usize>>, accused: Vec<usize>) {
        let mut removed_changed = false;
        for c in accused {
            if c < self.removed.len() && !self.removed[c] {
                self.removed[c] = true;
                removed_changed = true;
            }
        }
        let assignment = Assignment::from_groups(groups, self.shared.plan.n_controllers);
        if !removed_changed && assignment == self.active.epoch.assignment {
            return;
        }
        let epoch = Arc::new(Epoch::build(
            assignment,
            &self.shared.keys,
            self.shared.config.f,
            self.removed.clone(),
        ));
        let no = self.active.no + 1;
        let fresh = build_runtime(
            self.id,
            no,
            Arc::clone(&epoch),
            &self.mux,
            &self.cfg.runner,
            &self.cfg.registry,
        );
        let old = std::mem::replace(&mut self.active, fresh);
        let was_final_leader = old.epoch.final_leader() == self.id;
        self.announce_assignment(&old.epoch, &epoch, no);
        self.draining.push((Instant::now() + self.cfg.drain, old));
        self.block_in_flight = false;
        self.final_start = None;
        self.probe.epoch.store(no, Ordering::Relaxed);
        record_event(
            EventKind::EpochRotation,
            format!("controller {} rotated to epoch {no}", self.id),
        );
        // Carry queued transactions across the boundary: if the final
        // leadership moved, re-route them to the new leader.
        if was_final_leader && !self.pending_txs.is_empty() {
            let target = epoch.final_leader();
            if target != self.id {
                let txs = TxListPayload(self.pending_txs.drain(..).collect());
                let ctxs = txs
                    .0
                    .iter()
                    .map(|t| {
                        self.pending_ctxs
                            .remove(&t.record.key)
                            .unwrap_or(TraceCtx::NONE)
                    })
                    .collect();
                self.pending_keys.clear();
                self.pending_ctxs.clear();
                self.mux.send_app(
                    target,
                    &ClusterMsg::Agree {
                        epoch: no,
                        group: u64::MAX,
                        ctxs,
                        txs,
                    }
                    .encode(),
                );
            }
        }
        self.try_propose_block();
    }

    /// Pushes a just-committed assignment to every switch this node
    /// serves under the outgoing or the incoming epoch. A direct REPLY
    /// only reaches the accusing agent (it alone holds a matching
    /// pending request); every other switch learns the rotation from
    /// these announcements, keyed `ANNOUNCE_SEQ_BIT | epoch` so all
    /// controllers' copies match at the agent under the usual `f + 1`
    /// rule.
    fn announce_assignment(&self, old: &Epoch, new: &Epoch, no: u64) {
        if self.cfg.behavior == NodeBehavior::Silent {
            return;
        }
        let config = ConfigData::NewAssignment {
            groups: (0..self.shared.plan.n_switches)
                .map(|s| new.ctrl_list(SwitchId(s)).to_vec())
                .collect(),
        };
        for s in 0..self.shared.plan.n_switches {
            let switch = SwitchId(s);
            if !old.ctrl_list(switch).contains(&self.id)
                && !new.ctrl_list(switch).contains(&self.id)
            {
                continue;
            }
            let announced = match self.cfg.behavior {
                NodeBehavior::Lying => corrupt(&config),
                _ => config.clone(),
            };
            let key = RequestKey {
                switch,
                seq: ANNOUNCE_SEQ_BIT | no,
            };
            self.reply_to(switch, key, announced, TraceCtx::NONE);
        }
    }

    /// Answers a request from an agent this node does not currently
    /// serve: the sender is still homed on a stale epoch's controller
    /// list. Push the active assignment to it under the announce key —
    /// the same `f + 1` identical-config rule that gates a normal
    /// announcement gates the re-home, so a lone (or lying) hinter
    /// cannot steer the agent.
    fn rehome_hint(&self, switch: SwitchId) {
        if self.cfg.behavior == NodeBehavior::Silent {
            return;
        }
        let config = ConfigData::NewAssignment {
            groups: (0..self.shared.plan.n_switches)
                .map(|s| self.active.epoch.ctrl_list(SwitchId(s)).to_vec())
                .collect(),
        };
        let announced = match self.cfg.behavior {
            NodeBehavior::Lying => corrupt(&config),
            _ => config,
        };
        let key = RequestKey {
            switch,
            seq: ANNOUNCE_SEQ_BIT | self.active.no,
        };
        self.reply_to(switch, key, announced, TraceCtx::NONE);
    }

    fn runtime_epoch(&self, no: u64) -> Option<Arc<Epoch>> {
        if no == self.active.no {
            return Some(Arc::clone(&self.active.epoch));
        }
        self.draining
            .iter()
            .find(|(_, rt)| rt.no == no)
            .map(|(_, rt)| Arc::clone(&rt.epoch))
    }

    fn retire_drained(&mut self) {
        let now = Instant::now();
        let mut keep = Vec::new();
        for (deadline, rt) in self.draining.drain(..) {
            if now >= deadline {
                rt.join();
            } else {
                keep.push((deadline, rt));
            }
        }
        self.draining = keep;
    }
}

/// A byzantine node's reply corruption: plausible-looking but wrong
/// flow rules, whatever the committed configuration was.
fn corrupt(_config: &ConfigData) -> ConfigData {
    ConfigData::FlowRules(vec![FlowRuleSpec {
        priority: 1,
        dst_host: 0xBAD,
        out_port: 0xBAD,
    }])
}

/// Builds the consensus instances node `id` participates in for
/// `epoch` (numbered `no`): one lane per owned group, plus the final
/// lane for committee members. Lane member lists come from the epoch,
/// so every node derives identical lane rosters independently.
fn build_runtime(
    id: usize,
    no: u64,
    epoch: Arc<Epoch>,
    mux: &MuxTransport<Batch<CtrlPayload>>,
    runner_cfg: &RunnerConfig,
    registry: &Registry,
) -> EpochRuntime {
    let mut runner_cfg = runner_cfg.clone();
    if runner_cfg.node_label.is_none() {
        // Consensus spans recorded on runner threads carry the node's
        // label, landing in this node's file of a distributed trace.
        runner_cfg.node_label = Some(format!("ctrl{id}"));
    }
    let mut intra = Vec::new();
    for (gid, group) in epoch.groups.iter().enumerate() {
        let Some(replica_index) = group.replica_index(id) else {
            continue;
        };
        let lane: Lane<Batch<CtrlPayload>> = mux.lane(intra_lane(no, gid), group.members.clone());
        let replica = Replica::new(replica_index, group.members.len());
        intra.push((
            GroupId(gid),
            NetRunner::spawn_with_registry(replica, lane, runner_cfg.clone(), registry.clone()),
        ));
    }
    let finalr = epoch.final_replica_index(id).map(|replica_index| {
        let lane: Lane<Batch<CtrlPayload>> = mux.lane(final_lane(no), epoch.final_com.clone());
        let replica = Replica::new(replica_index, epoch.final_com.len());
        NetRunner::spawn_with_registry(replica, lane, runner_cfg.clone(), registry.clone())
    });
    EpochRuntime {
        no,
        epoch,
        intra,
        finalr,
    }
}

/// Monotonic registration tokens for southbound connections, so a
/// reader thread that exits late can tell whether the registry entry
/// for its switch is still its own (see `southbound_reader`).
static SB_REG_TOKEN: AtomicU64 = AtomicU64::new(0);

fn southbound_accept_loop(
    listener: TcpListener,
    conns: Arc<Mutex<HashMap<usize, (u64, TcpStream)>>>,
    events: Sender<SbEvent>,
    shutdown: Arc<AtomicBool>,
    poll: Duration,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conns = Arc::clone(&conns);
                let events = events.clone();
                let flag = Arc::clone(&shutdown);
                let _ = thread::Builder::new()
                    .name("curb-node-sb-reader".to_string())
                    .spawn(move || southbound_reader(stream, conns, events, flag));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(poll),
            Err(_) => break,
        }
    }
}

/// Per-connection southbound reader: a `Hello` registers the writer
/// half for replies, then every `Request` is forwarded to the node's
/// main loop. Anything malformed drops the connection.
fn southbound_reader(
    stream: TcpStream,
    conns: Arc<Mutex<HashMap<usize, (u64, TcpStream)>>>,
    events: Sender<SbEvent>,
    shutdown: Arc<AtomicBool>,
) {
    if sb_stream(&stream).is_err() {
        return;
    }
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let _ = reader.set_read_timeout(Some(Duration::from_millis(50)));
    // Zero-copy decode: reads land straight in the decoder's shared
    // block, and each frame is decoded from its in-place view. The
    // message scratch vec is reused across reads.
    let mut decoder = SharedDecoder::new(SB_MAX_FRAME);
    let mut msgs: Vec<Option<SbMsg>> = Vec::new();
    let mut registered: Option<(usize, u64)> = None;
    'outer: while !shutdown.load(Ordering::SeqCst) {
        let n = match reader.read(decoder.writable()) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        msgs.clear();
        if decoder
            .advance(n, |frame| msgs.push(SbMsg::decode(&frame)))
            .is_err()
        {
            break;
        }
        for msg in msgs.drain(..) {
            match msg {
                Some(SbMsg::Hello { switch }) if registered.is_none() => {
                    let switch = switch as usize;
                    let token = SB_REG_TOKEN.fetch_add(1, Ordering::Relaxed);
                    registered = Some((switch, token));
                    conns.lock().expect("southbound registry poisoned").insert(
                        switch,
                        (token, stream.try_clone().expect("clone sb stream")),
                    );
                }
                Some(SbMsg::Request { record, ctx }) => {
                    if let Some((switch, _)) = registered {
                        if events
                            .send(SbEvent::Request {
                                switch,
                                record,
                                ctx,
                            })
                            .is_err()
                        {
                            break 'outer;
                        }
                    }
                }
                _ => break 'outer, // protocol violation: drop the peer
            }
        }
    }
    if let Some((switch, token)) = registered {
        // Remove only the entry this connection installed: the agent
        // may already have reconnected and re-registered while this
        // reader was still parked on its dead socket, and blindly
        // removing by switch id would sever the agent's *new* reply
        // path — every future REPLY to it would vanish, wedging the
        // switch for good.
        let mut conns = conns.lock().expect("southbound registry poisoned");
        if conns.get(&switch).is_some_and(|(t, _)| *t == token) {
            conns.remove(&switch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(switch: usize, seq: u64, handled_by: usize) -> ProtoTx {
        ProtoTx {
            record: RequestRecord {
                key: RequestKey {
                    switch: SwitchId(switch),
                    seq,
                },
                kind: ReqKind::PktIn { dst_host: 1 },
            },
            handled_by,
            config: ConfigData::FlowRules(Vec::new()),
        }
    }

    #[test]
    fn a_block_cut_from_a_queue_with_a_replayed_request_commits_the_others() {
        let mut chain = ChainStore::ephemeral(b"genesis");
        let committed = request(0, 5, 1);
        let block = Block::next(chain.tip(), vec![committed.to_chain_tx()], 1);
        chain.append(block).unwrap();
        // The same request again, from the leader of another epoch.
        let replayed = request(0, 5, 2);
        let queue = vec![request(0, 6, 1), replayed, request(1, 5, 1)];
        let whole: Vec<Transaction> = queue.iter().map(ProtoTx::to_chain_tx).collect();
        assert!(
            chain
                .head()
                .clone()
                .accept(&Block::next(chain.tip(), whole, 2))
                .is_err(),
            "uncut, the replay sinks the block"
        );

        let (fresh, stale) = block_txs(chain.head(), queue, u64::MAX);
        assert_eq!(stale, [committed.record.key]);
        let keys: Vec<RequestKey> = fresh.iter().map(|(key, _)| *key).collect();
        assert_eq!(
            keys,
            [request(0, 6, 1).record.key, request(1, 5, 1).record.key]
        );
        let txs = fresh.into_iter().map(|(_, tx)| tx).collect();
        chain.append(Block::next(chain.tip(), txs, 2)).unwrap();
        assert_eq!(chain.tx_count(), 4);
    }

    #[test]
    fn a_sequence_number_from_the_future_neither_commits_nor_blocks_the_switch() {
        // Switch 0's agent started at `now`; a forged request for it
        // claims `u64::MAX`.
        let now = wall_clock_us();
        let ceiling = now + SEQ_CLOCK_SLACK_US;
        assert!(seq_ceiling() >= ceiling);
        let forged = request(0, u64::MAX, 1);

        let mut seen = SeqWindow::default();
        assert!(!fresh_at_intake(&mut seen, u64::MAX, ceiling));
        assert!(!fresh_at_intake(&mut seen, ceiling + 1, ceiling));
        assert!(fresh_at_intake(&mut seen, now, ceiling));
        assert!(fresh_at_intake(&mut seen, now + 1, ceiling));

        let mut chain = ChainStore::ephemeral(b"genesis");
        let queue = vec![forged.clone(), request(0, now, 1)];
        let (fresh, stale) = block_txs(chain.head(), queue, ceiling);
        assert_eq!(stale, [forged.record.key]);
        let txs = fresh.into_iter().map(|(_, tx)| tx).collect();
        chain.append(Block::next(chain.tip(), txs, 1)).unwrap();
        // The agent's next request still commits.
        let (fresh, stale) = block_txs(chain.head(), vec![request(0, now + 1, 1)], ceiling);
        assert!(stale.is_empty());
        let txs = fresh.into_iter().map(|(_, tx)| tx).collect();
        chain.append(Block::next(chain.tip(), txs, 2)).unwrap();
        assert_eq!(chain.tx_count(), 3);
    }
}
