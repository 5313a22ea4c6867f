//! The s-agent: the switch-side daemon of the Curb architecture,
//! running as a real TCP client against its controller group.
//!
//! A table miss raises PACKET_IN: the agent broadcasts the request to
//! every controller in its list and collects [`SbMsg::Reply`] frames.
//! Acceptance is the shared [`ReplyMatcher`] rule — `f + 1` identical
//! configurations — and the accepted flow rules are installed into a
//! local [`FlowTable`] via FLOW_MOD, exactly the types the simulator's
//! switches use. Contradicting or missing replies feed the shared
//! [`EvidenceBook`]; fresh accusations trigger a live RE-ASS request,
//! and an accepted `NewAssignment` makes the agent re-home its TCP
//! connections onto the new controller group.
//!
//! Using the same matcher/evidence types as the in-simulator
//! [`SwitchActor`] means the cluster and the simulation can never
//! drift apart on what counts as byzantine.
//!
//! [`SwitchActor`]: curb_core::SwitchActor

use crate::node::write_sb_frame;
use crate::wire::{SbMsg, ANNOUNCE_SEQ_BIT};
use curb_core::{
    Audit, ConfigData, EvidenceBook, ReplyMatcher, ReqKind, RequestKey, RequestRecord, SwitchId,
};
use curb_net::SharedDecoder;
use curb_sdn::{FlowAction, FlowEntry, FlowMatch, FlowMod, FlowTable, HostId, PortId};
use curb_telemetry::{
    next_trace_nonce, now_nanos, record_event_ctx, record_span_ctx, EventKind, TraceCtx,
};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Wall-clock microseconds since the UNIX epoch (≈ 2⁵¹ today, far
/// below [`ANNOUNCE_SEQ_BIT`]): where an agent's sequence numbers
/// start, and what a node bounds them by.
pub(crate) fn wall_clock_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// Tuning knobs for an [`SAgent`].
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// The switch this agent fronts.
    pub switch: SwitchId,
    /// Replies required before accepting (`f + 1`).
    pub accept_quorum: usize,
    /// Replies this much later than the accept are "lazy" evidence.
    pub lazy_margin_ns: u64,
    /// Missing-reply strikes before a controller is accused.
    pub suspect_threshold: u32,
    /// Lazy strikes before a controller is accused.
    pub lazy_patience: u32,
    /// How long to wait for replies before auditing a request.
    pub request_timeout: Duration,
    /// Idle loop sleep.
    pub poll: Duration,
    /// Maximum southbound frame size.
    pub max_frame: usize,
}

impl AgentConfig {
    /// Defaults for `switch` with quorum `f + 1`.
    pub fn new(switch: SwitchId, accept_quorum: usize) -> AgentConfig {
        AgentConfig {
            switch,
            accept_quorum,
            lazy_margin_ns: Duration::from_millis(300).as_nanos() as u64,
            suspect_threshold: 2,
            lazy_patience: 5,
            request_timeout: Duration::from_secs(2),
            poll: Duration::from_millis(1),
            max_frame: 1 << 20,
        }
    }
}

/// What an agent observed; the cluster surfaces these on one stream.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentEvent {
    /// `f + 1` identical replies: the configuration is accepted (and
    /// flow rules installed).
    Accepted {
        /// The request.
        key: RequestKey,
        /// The accepted configuration.
        config: ConfigData,
        /// Request → accept latency.
        latency_ns: u64,
    },
    /// Controllers contradicted the accepted config, missed the
    /// audit, or were persistently lazy — byzantine evidence.
    Byzantine {
        /// Newly accused controllers.
        accused: Vec<usize>,
    },
    /// The agent issued a RE-ASS request over the evidence.
    ReassIssued {
        /// The RE-ASS request key.
        key: RequestKey,
        /// The accused controllers.
        accused: Vec<usize>,
    },
    /// An accepted `NewAssignment` re-homed the agent.
    EpochAdopted {
        /// The agent's new controller list.
        ctrl_list: Vec<usize>,
    },
}

/// Live counters a test or benchmark can poll.
#[derive(Debug, Default)]
pub struct AgentProbe {
    /// Requests accepted (`f + 1` rule met).
    pub accepted: AtomicU64,
    /// RE-ASS requests issued.
    pub reass_issued: AtomicU64,
    /// `NewAssignment`s adopted.
    pub epochs_adopted: AtomicU64,
    /// Flow entries currently installed.
    pub flows: AtomicU64,
}

enum AgentCmd {
    PktIn { dst_host: u32 },
}

/// Control surface for a spawned [`SAgent`].
pub struct AgentHandle {
    /// The switch this agent fronts.
    pub switch: SwitchId,
    /// Live counters.
    pub probe: Arc<AgentProbe>,
    cmds: Sender<AgentCmd>,
    thread: Option<JoinHandle<()>>,
}

impl AgentHandle {
    /// Raises a PACKET_IN for `dst_host` (a table miss at the switch).
    pub fn pkt_in(&self, dst_host: u32) {
        let _ = self.cmds.send(AgentCmd::PktIn { dst_host });
    }

    /// A cloneable injection-only handle for driver threads: it can
    /// raise PACKET_INs but cannot join or shut the agent down, so an
    /// open-loop workload thread can own one while the cluster keeps
    /// the real handle.
    pub fn injector(&self) -> AgentInjector {
        AgentInjector {
            switch: self.switch,
            cmds: self.cmds.clone(),
        }
    }

    /// Stops the agent and waits for its thread.
    pub fn join(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        // The agent loop observes the command channel disconnecting.
        if let Some(t) = self.thread.take() {
            let (dummy, _) = channel();
            drop(std::mem::replace(&mut self.cmds, dummy));
            let _ = t.join();
        }
    }
}

impl Drop for AgentHandle {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Injection-only clone of an [`AgentHandle`] (see
/// [`AgentHandle::injector`]). Dropping it never stops the agent.
#[derive(Clone)]
pub struct AgentInjector {
    /// The switch this injector feeds.
    pub switch: SwitchId,
    cmds: Sender<AgentCmd>,
}

impl AgentInjector {
    /// Raises a PACKET_IN for `dst_host` (a table miss at the switch).
    pub fn pkt_in(&self, dst_host: u32) {
        let _ = self.cmds.send(AgentCmd::PktIn { dst_host });
    }
}

/// How many times an unanswered request is re-raised (fresh sequence
/// number, same intent) before the agent gives up on it. A request can
/// be lost without any controller misbehaving — e.g. it raced an epoch
/// rotation and reached a leader that had already stepped down — so a
/// real switch re-raises PACKET_IN on timeout; the audit strikes for
/// the lost round still land.
const MAX_RETRIES: u32 = 5;

struct PendingReq {
    matcher: ReplyMatcher,
    kind: ReqKind,
    sent_ns: u64,
    retries: u32,
    /// The round's trace context (minted at send; [`TraceCtx::NONE`]
    /// for controller-initiated announcement matchers).
    ctx: TraceCtx,
}

/// The s-agent state machine; owned by its thread.
pub struct SAgent {
    cfg: AgentConfig,
    sb_addrs: Vec<SocketAddr>,
    ctrl_list: Vec<usize>,
    conns: HashMap<usize, TcpStream>,
    reply_tx: Sender<(usize, SbMsg)>,
    reply_rx: Receiver<(usize, SbMsg)>,
    pending: HashMap<RequestKey, PendingReq>,
    /// Pending requests awaiting their timeout audit, with the time it
    /// is due. Deadlines are insert time plus a constant, so the queue
    /// is ordered and only its front is ever looked at.
    audit_due: VecDeque<(Instant, RequestKey)>,
    /// Audited requests awaiting removal one more timeout later, so
    /// late contradictions still count. Ordered like `audit_due`.
    reap_due: VecDeque<(Instant, RequestKey)>,
    evidence: EvidenceBook,
    table: FlowTable,
    /// The last sequence number issued. It starts at
    /// [`wall_clock_us`]: an agent persists nothing, yet the chain
    /// accepts each `(switch, seq)` once, so a restarted agent must
    /// number above its previous life — which it does as long as that
    /// life issued, on average, fewer than one request per microsecond
    /// and the clock did not step back.
    next_seq: u64,
    events: Sender<(SwitchId, AgentEvent)>,
    probe: Arc<AgentProbe>,
}

impl SAgent {
    /// Spawns the agent on its own thread.
    ///
    /// `sb_addrs[c]` is controller `c`'s southbound address;
    /// `ctrl_list` the Step-0 controller group of this switch. Events
    /// are tagged with the switch id so many agents can share one
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if the agent thread cannot be spawned.
    pub fn spawn(
        cfg: AgentConfig,
        ctrl_list: Vec<usize>,
        sb_addrs: Vec<SocketAddr>,
        events: Sender<(SwitchId, AgentEvent)>,
    ) -> AgentHandle {
        let (cmd_tx, cmd_rx) = channel();
        let probe = Arc::new(AgentProbe::default());
        let probe2 = Arc::clone(&probe);
        let switch = cfg.switch;
        let thread = thread::Builder::new()
            .name(format!("curb-sagent-{}", switch.0))
            .spawn(move || {
                // Spans and flight-recorder events from this thread
                // carry the agent's node label, which becomes the
                // clock-domain name in merged multi-node traces.
                curb_telemetry::set_thread_node(format!("agent{}", switch.0));
                let (reply_tx, reply_rx) = channel();
                let mut agent = SAgent {
                    evidence: EvidenceBook::new(cfg.suspect_threshold, cfg.lazy_patience),
                    cfg,
                    sb_addrs,
                    ctrl_list: Vec::new(),
                    conns: HashMap::new(),
                    reply_tx,
                    reply_rx,
                    pending: HashMap::new(),
                    audit_due: VecDeque::new(),
                    reap_due: VecDeque::new(),
                    table: FlowTable::new(),
                    next_seq: wall_clock_us(),
                    events,
                    probe: probe2,
                };
                agent.adopt_ctrl_list(ctrl_list);
                agent.run(cmd_rx);
            })
            .expect("spawn s-agent");
        AgentHandle {
            switch,
            probe,
            cmds: cmd_tx,
            thread: Some(thread),
        }
    }

    fn run(&mut self, cmds: Receiver<AgentCmd>) {
        loop {
            let mut progress = false;
            loop {
                match cmds.try_recv() {
                    Ok(AgentCmd::PktIn { dst_host }) => {
                        self.send_request(ReqKind::PktIn { dst_host });
                        progress = true;
                    }
                    Err(std::sync::mpsc::TryRecvError::Empty) => break,
                    Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                        self.disconnect_all();
                        // cluster.round spans live in this thread's
                        // local buffer; hand them to the sink.
                        curb_telemetry::flush_thread();
                        return;
                    }
                }
            }
            while let Ok((controller, msg)) = self.reply_rx.try_recv() {
                if let SbMsg::Reply { key, config, .. } = msg {
                    self.on_reply(controller, key, config);
                    progress = true;
                }
            }
            self.audit_timeouts();
            if !progress {
                thread::sleep(self.cfg.poll);
            }
        }
    }

    fn send_request(&mut self, kind: ReqKind) -> RequestKey {
        self.send_request_with(kind, 0)
    }

    fn send_request_with(&mut self, kind: ReqKind, retries: u32) -> RequestKey {
        self.next_seq += 1;
        let key = RequestKey {
            switch: self.cfg.switch,
            seq: self.next_seq,
        };
        let record = RequestRecord {
            key,
            kind: kind.clone(),
        };
        // Mint the round's cross-process correlation key. The nonce is
        // a process-global counter (not the per-switch seq) so rounds
        // from successive cluster runs in one process never collide in
        // a merged trace.
        let ctx = TraceCtx::mint(self.cfg.switch.0 as u64, next_trace_nonce());
        self.track(key, kind, retries, ctx);
        let msg = SbMsg::Request { record, ctx };
        for c in self.ctrl_list.clone() {
            self.write_to(c, &msg);
        }
        key
    }

    /// Opens the reply matcher for `key` and schedules its audit.
    fn track(&mut self, key: RequestKey, kind: ReqKind, retries: u32, ctx: TraceCtx) {
        self.pending.insert(
            key,
            PendingReq {
                matcher: ReplyMatcher::new(self.cfg.accept_quorum, self.cfg.lazy_margin_ns),
                kind,
                sent_ns: now_nanos(),
                retries,
                ctx,
            },
        );
        self.audit_due
            .push_back((Instant::now() + self.cfg.request_timeout, key));
    }

    fn on_reply(&mut self, controller: usize, key: RequestKey, config: ConfigData) {
        if !self.pending.contains_key(&key) {
            // Controllers push committed reassignments under a
            // synthetic announce key; open a matcher for it so the
            // same `f + 1` identical-config rule gates adoption.
            // Anything else without a pending request is stale or
            // fabricated and is dropped.
            if key.seq & ANNOUNCE_SEQ_BIT == 0 || key.switch != self.cfg.switch {
                return;
            }
            // Announcements are controller-initiated; there is nothing
            // for the agent to re-raise.
            let kind = ReqKind::ReAss {
                accused: Vec::new(),
            };
            self.track(key, kind, MAX_RETRIES, TraceCtx::NONE);
        }
        let pending = self.pending.get_mut(&key).expect("pending entry exists");
        self.evidence.clear_miss(controller);
        let now = now_nanos();
        let outcome = pending.matcher.on_reply(controller, config, now);
        // Once every controller has answered an agent-issued round, no
        // later reply can change its outcome: audit it now and forget
        // it, rather than hold it for two more timeouts. (Announcement
        // matchers stay, so that stragglers' copies are not mistaken
        // for a new announcement.)
        let settled = (key.seq & ANNOUNCE_SEQ_BIT == 0 && pending.matcher.settled(&self.ctrl_list))
            .then(|| pending.matcher.audit(&self.ctrl_list))
            .flatten();
        if let Some(config) = outcome.newly_accepted {
            let latency_ns = now.saturating_sub(pending.sent_ns);
            let sent_ns = pending.sent_ns;
            let ctx = pending.ctx;
            // Install before announcing: anyone observing `Accepted`
            // must already see the config's effects (flow table,
            // ctrl_list) on the agent.
            self.apply_config(&config);
            if key.seq & ANNOUNCE_SEQ_BIT == 0 {
                // Only agent-issued rounds count as accepts; an
                // announcement quorum just applies (EpochAdopted
                // is emitted by apply_config).
                record_span_ctx(
                    "cluster.round",
                    sent_ns,
                    now,
                    self.cfg.switch.0 as i64,
                    key.seq as i64,
                    ctx,
                );
                self.probe.accepted.fetch_add(1, Ordering::Relaxed);
                let _ = self.events.send((
                    self.cfg.switch,
                    AgentEvent::Accepted {
                        key,
                        config: config.clone(),
                        latency_ns,
                    },
                ));
            }
        }
        if !outcome.contradictors.is_empty() {
            self.accuse(outcome.contradictors);
        }
        if outcome.straggler && self.evidence.lazy_strike(controller) {
            self.accuse(vec![controller]);
        }
        if let Some(audit) = settled {
            self.pending.remove(&key);
            let mut accused = Vec::new();
            strike(&mut self.evidence, audit, &mut accused);
            if !accused.is_empty() {
                self.accuse(accused);
            }
        }
    }

    /// Installs an accepted configuration: FLOW_MOD for flow rules,
    /// connection re-homing for a new assignment.
    fn apply_config(&mut self, config: &ConfigData) {
        match config {
            ConfigData::FlowRules(rules) => {
                for rule in rules {
                    let entry = FlowEntry::new(
                        rule.priority,
                        FlowMatch::dst_host(HostId(rule.dst_host)),
                        vec![FlowAction::Output(PortId(rule.out_port))],
                    );
                    FlowMod::add(entry).apply(&mut self.table, now_nanos());
                }
                self.probe
                    .flows
                    .store(self.table.len() as u64, Ordering::Relaxed);
            }
            ConfigData::NewAssignment { groups } => {
                if let Some(list) = groups.get(self.cfg.switch.0) {
                    self.adopt_ctrl_list(list.clone());
                    self.probe.epochs_adopted.fetch_add(1, Ordering::Relaxed);
                    let _ = self.events.send((
                        self.cfg.switch,
                        AgentEvent::EpochAdopted {
                            ctrl_list: list.clone(),
                        },
                    ));
                }
            }
        }
    }

    /// Request timed out without `f + 1` identical replies: audit who
    /// never answered and strike them (Algorithm 1's timeout path).
    /// Touches only the entries that are due.
    fn audit_timeouts(&mut self) {
        let now = Instant::now();
        let mut accused: Vec<usize> = Vec::new();
        let mut resend: Vec<(ReqKind, u32)> = Vec::new();
        while let Some(&(due, key)) = self.audit_due.front().filter(|(due, _)| *due <= now) {
            self.audit_due.pop_front();
            let Some(pending) = self.pending.get_mut(&key) else {
                continue;
            };
            if let Some(audit) = pending.matcher.audit(&self.ctrl_list) {
                strike(&mut self.evidence, audit, &mut accused);
            }
            // A request that never reached acceptance is re-raised
            // under a fresh sequence number: it may have raced an
            // epoch rotation rather than met byzantine silence.
            if pending.matcher.accepted().is_none() && pending.retries < MAX_RETRIES {
                resend.push((pending.kind.clone(), pending.retries + 1));
            }
            self.reap_due
                .push_back((due + self.cfg.request_timeout, key));
        }
        while let Some((_, key)) = self.reap_due.front().filter(|(due, _)| *due <= now) {
            self.pending.remove(key);
            self.reap_due.pop_front();
        }
        if !accused.is_empty() {
            self.accuse(accused);
        }
        for (kind, retries) in resend {
            self.send_request_with(kind, retries);
        }
    }

    /// Records fresh accusations and fires the live RE-ASS request.
    fn accuse(&mut self, controllers: Vec<usize>) {
        let fresh = self.evidence.fresh_accusations(controllers);
        if fresh.is_empty() {
            return;
        }
        record_event_ctx(
            EventKind::ByzantineFlag,
            format!("switch {} accuses {:?}", self.cfg.switch.0, fresh),
            TraceCtx::NONE,
        );
        let _ = self.events.send((
            self.cfg.switch,
            AgentEvent::Byzantine {
                accused: fresh.clone(),
            },
        ));
        let key = self.send_request(ReqKind::ReAss {
            accused: fresh.clone(),
        });
        let reass_ctx = self.pending.get(&key).map(|p| p.ctx).unwrap_or_default();
        record_event_ctx(
            EventKind::ReAss,
            format!(
                "switch {} issued RE-ASS seq {} over {:?}",
                self.cfg.switch.0, key.seq, fresh
            ),
            reass_ctx,
        );
        self.probe.reass_issued.fetch_add(1, Ordering::Relaxed);
        let _ = self.events.send((
            self.cfg.switch,
            AgentEvent::ReassIssued {
                key,
                accused: fresh,
            },
        ));
    }

    /// Re-homes the agent's connections onto `list` (Step 0 or an
    /// accepted reassignment).
    fn adopt_ctrl_list(&mut self, list: Vec<usize>) {
        let changed = list != self.ctrl_list;
        self.evidence.adopt_ctrl_list(changed, &list);
        let stale: Vec<usize> = self
            .conns
            .keys()
            .copied()
            .filter(|c| !list.contains(c))
            .collect();
        for c in stale {
            if let Some(conn) = self.conns.remove(&c) {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        self.ctrl_list = list;
        for c in self.ctrl_list.clone() {
            self.ensure_connected(c);
        }
    }

    fn ensure_connected(&mut self, controller: usize) -> bool {
        if self.conns.contains_key(&controller) {
            return true;
        }
        let Some(&addr) = self.sb_addrs.get(controller) else {
            return false;
        };
        let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
            return false;
        };
        let _ = stream.set_nodelay(true);
        if write_sb_frame(
            &mut stream,
            &SbMsg::Hello {
                switch: self.cfg.switch.0 as u64,
            },
        )
        .is_err()
        {
            return false;
        }
        let reader = match stream.try_clone() {
            Ok(r) => r,
            Err(_) => return false,
        };
        let tx = self.reply_tx.clone();
        let max_frame = self.cfg.max_frame;
        let _ = thread::Builder::new()
            .name(format!("curb-sagent-{}-rx-{controller}", self.cfg.switch.0))
            .spawn(move || reply_reader(reader, controller, tx, max_frame));
        self.conns.insert(controller, stream);
        true
    }

    fn write_to(&mut self, controller: usize, msg: &SbMsg) {
        if !self.ensure_connected(controller) {
            return;
        }
        let failed = match self.conns.get_mut(&controller) {
            Some(stream) => write_sb_frame(stream, msg).is_err(),
            None => false,
        };
        if failed {
            self.conns.remove(&controller);
        }
    }

    fn disconnect_all(&mut self) {
        for (_, conn) in self.conns.drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// Strikes everyone an audit found missing or lazy, collecting those
/// whose tally now warrants an accusation.
fn strike(evidence: &mut EvidenceBook, audit: Audit, accused: &mut Vec<usize>) {
    accused.extend(
        audit
            .missing
            .into_iter()
            .filter(|m| evidence.miss_strike(*m)),
    );
    accused.extend(
        audit
            .lazies
            .into_iter()
            .filter(|l| evidence.lazy_strike(*l)),
    );
}

/// Reads reply frames off one controller connection until it closes.
fn reply_reader(
    mut stream: TcpStream,
    controller: usize,
    tx: Sender<(usize, SbMsg)>,
    max_frame: usize,
) {
    // Zero-copy decode: reads land straight in the decoder's shared
    // block; the reply scratch vec is reused across reads.
    let mut decoder = SharedDecoder::new(max_frame);
    let mut msgs: Vec<Option<SbMsg>> = Vec::new();
    loop {
        let n = match stream.read(decoder.writable()) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        msgs.clear();
        if decoder
            .advance(n, |frame| msgs.push(SbMsg::decode(&frame)))
            .is_err()
        {
            return;
        }
        for msg in msgs.drain(..) {
            match msg {
                Some(msg @ SbMsg::Reply { .. }) => {
                    if tx.send((controller, msg)).is_err() {
                        return;
                    }
                }
                Some(_) => {} // ignore non-reply frames from controllers
                None => return,
            }
        }
    }
}
