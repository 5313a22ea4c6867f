//! The s-agent as a real TCP client: a socket driver of
//! [`AgentMachine`], which the simulator's [`SwitchActor`] drives too.
//! The machine decides what replies mean; this driver keeps one
//! connection per listed controller (re-homed on an adopted
//! `NewAssignment`), re-raises unanswered requests, and reports through
//! [`AgentEvent`]s, spans and flight-recorder events. Its thread blocks
//! on one inbox (PACKET_INs, replies, shutdown) until the machine's
//! next deadline.
//!
//! [`SwitchActor`]: curb_core::SwitchActor

use crate::wire::{sb_stream, write_sb_frame, SbMsg, SB_MAX_FRAME};
use curb_core::{
    AgentMachine, AgentOutput, ConfigData, ReqKind, RequestKey, RequestRecord, Shared, SwitchId,
};
use curb_net::SharedDecoder;
use curb_telemetry::{
    next_trace_nonce, now_nanos, record_event_ctx, record_span_ctx, EventKind, TraceCtx,
};
use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Wall-clock microseconds since the UNIX epoch (≈ 2⁵¹ today, far
/// below [`ANNOUNCE_SEQ_BIT`]): where an agent's sequence numbers
/// start, and what a node bounds them by.
///
/// [`ANNOUNCE_SEQ_BIT`]: curb_core::ANNOUNCE_SEQ_BIT
pub(crate) fn wall_clock_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
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
    /// Flow rules installed (the table-miss entry not counted).
    pub flows: AtomicU64,
}

/// What the agent thread waits on: a PACKET_IN's destination host, a
/// controller's reply, or the end.
enum Inbox {
    PktIn(u32),
    Reply(usize, RequestKey, ConfigData),
    Shutdown,
}

/// Control surface for a spawned [`SAgent`].
pub struct AgentHandle {
    /// The switch this agent fronts.
    pub switch: SwitchId,
    /// Live counters.
    pub probe: Arc<AgentProbe>,
    injector: AgentInjector,
    thread: Option<JoinHandle<()>>,
}

impl AgentHandle {
    /// Raises a PACKET_IN for `dst_host` (a table miss at the switch).
    pub fn pkt_in(&self, dst_host: u32) {
        self.injector.pkt_in(dst_host);
    }

    /// A cloneable injection-only handle for driver threads: it can
    /// raise PACKET_INs but cannot join or shut the agent down, so an
    /// open-loop workload thread can own one while the cluster keeps
    /// the real handle.
    pub fn injector(&self) -> AgentInjector {
        self.injector.clone()
    }

    /// Stops the agent and waits for its thread.
    pub fn join(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = self.injector.cmds.send(Inbox::Shutdown);
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
    cmds: Sender<Inbox>,
}

impl AgentInjector {
    /// Raises a PACKET_IN for `dst_host` (a table miss at the switch).
    pub fn pkt_in(&self, dst_host: u32) {
        let _ = self.cmds.send(Inbox::PktIn(dst_host));
    }
}

/// How many times an unanswered request is re-raised under a fresh
/// sequence number. A request can be lost with no controller at fault
/// (it raced an epoch rotation to a leader that had stepped down); the
/// audit strikes for the lost round still land.
const MAX_RETRIES: u32 = 5;

/// The socket driver of one switch's [`AgentMachine`]; owned by its
/// thread.
pub struct SAgent {
    machine: AgentMachine,
    /// The origin of the machine's clock.
    origin: Instant,
    sb_addrs: Vec<SocketAddr>,
    conns: HashMap<usize, TcpStream>,
    /// Where connection readers deliver replies.
    inbox: Sender<Inbox>,
    /// Each open agent-issued round's trace context, by sequence
    /// number.
    ctxs: HashMap<u64, TraceCtx>,
    events: Sender<(SwitchId, AgentEvent)>,
    probe: Arc<AgentProbe>,
}

impl SAgent {
    /// Spawns the agent for `switch` on its own thread, with the quorum
    /// and thresholds of `shared.config` and requests audited
    /// `request_timeout` after they are sent. `sb_addrs[c]` is
    /// controller `c`'s southbound address, `ctrl_list` the switch's
    /// Step-0 group; events are tagged with the switch id.
    ///
    /// Sequence numbers start at [`wall_clock_us`]: an agent persists
    /// nothing, yet the chain accepts each `(switch, seq)` once, so a
    /// restarted agent must number above its previous life — which it
    /// does unless that life averaged over one request per microsecond
    /// or the clock stepped back.
    ///
    /// # Panics
    ///
    /// Panics if the agent thread cannot be spawned.
    pub fn spawn(
        switch: SwitchId,
        shared: Arc<Shared>,
        request_timeout: Duration,
        ctrl_list: Vec<usize>,
        sb_addrs: Vec<SocketAddr>,
        events: Sender<(SwitchId, AgentEvent)>,
    ) -> AgentHandle {
        let (inbox_tx, inbox) = channel();
        let injector = AgentInjector {
            switch,
            cmds: inbox_tx.clone(),
        };
        let mut agent = SAgent {
            machine: AgentMachine::new(
                switch,
                ctrl_list,
                &shared,
                request_timeout,
                wall_clock_us(),
            ),
            origin: Instant::now(),
            sb_addrs,
            conns: HashMap::new(),
            inbox: inbox_tx,
            ctxs: HashMap::new(),
            events,
            probe: Arc::default(),
        };
        let probe = Arc::clone(&agent.probe);
        let thread = thread::Builder::new()
            .name(format!("curb-sagent-{}", switch.0))
            .spawn(move || {
                // Spans and flight-recorder events from this thread
                // carry the agent's node label, which becomes the
                // clock-domain name in merged multi-node traces.
                curb_telemetry::set_thread_node(format!("agent{}", switch.0));
                agent.rehome();
                agent.run(inbox);
            })
            .expect("spawn s-agent");
        AgentHandle {
            switch,
            probe,
            injector,
            thread: Some(thread),
        }
    }

    /// Nanoseconds on the machine's clock.
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn run(&mut self, inbox: Receiver<Inbox>) {
        loop {
            let wait = self.machine.next_deadline().map_or(Duration::MAX, |due| {
                Duration::from_nanos(due.saturating_sub(self.now()))
            });
            match inbox.recv_timeout(wait) {
                Ok(Inbox::PktIn(dst_host)) => self.raise(ReqKind::PktIn { dst_host }, 0),
                Ok(Inbox::Reply(controller, key, config)) => {
                    let outputs = self.machine.reply(controller, key, config, self.now());
                    self.act(outputs);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Ok(Inbox::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            }
            let outputs = self.machine.deadline(self.now());
            self.act(outputs);
        }
        for (_, conn) in self.conns.drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // cluster.round spans live in this thread's local buffer; hand
        // them to the sink.
        curb_telemetry::flush_thread();
    }

    fn raise(&mut self, kind: ReqKind, retries: u32) {
        let record = self.machine.raise(kind, retries, self.now());
        self.broadcast(record);
    }

    /// Sends `record` to every controller in the list, under a fresh
    /// trace context: the nonce is a process-global counter, so rounds
    /// of successive clusters in one process never collide in a merged
    /// trace.
    fn broadcast(&mut self, record: RequestRecord) {
        let ctx = TraceCtx::mint(record.key.switch.0 as u64, next_trace_nonce());
        self.ctxs.insert(record.key.seq, ctx);
        let msg = SbMsg::Request { record, ctx };
        for c in self.machine.ctrl_list().to_vec() {
            self.write_to(c, &msg);
        }
    }

    fn emit(&self, event: AgentEvent) {
        let _ = self.events.send((self.machine.switch(), event));
    }

    /// Carries out the machine's outputs.
    fn act(&mut self, outputs: Vec<AgentOutput>) {
        let switch = self.machine.switch();
        for output in outputs {
            match output {
                AgentOutput::Request(record) => self.broadcast(record),
                AgentOutput::Accepted {
                    key,
                    config,
                    latency_ns,
                } => {
                    let end = now_nanos();
                    let ctx = self.ctxs.get(&key.seq).copied().unwrap_or_default();
                    record_span_ctx(
                        "cluster.round",
                        end.saturating_sub(latency_ns),
                        end,
                        switch.0 as i64,
                        key.seq as i64,
                        ctx,
                    );
                    let flows = self.machine.flow_table().len().saturating_sub(1);
                    self.probe.flows.store(flows as u64, Ordering::Relaxed);
                    self.probe.accepted.fetch_add(1, Ordering::Relaxed);
                    self.emit(AgentEvent::Accepted {
                        key,
                        config,
                        latency_ns,
                    });
                }
                AgentOutput::Accused { accused, reass } => {
                    record_event_ctx(
                        EventKind::ByzantineFlag,
                        format!("switch {} accuses {accused:?}", switch.0),
                        TraceCtx::NONE,
                    );
                    self.emit(AgentEvent::Byzantine {
                        accused: accused.clone(),
                    });
                    let ctx = self.ctxs.get(&reass.seq).copied().unwrap_or_default();
                    record_event_ctx(
                        EventKind::ReAss,
                        format!(
                            "switch {} issued RE-ASS seq {} over {accused:?}",
                            switch.0, reass.seq
                        ),
                        ctx,
                    );
                    self.probe.reass_issued.fetch_add(1, Ordering::Relaxed);
                    self.emit(AgentEvent::ReassIssued {
                        key: reass,
                        accused,
                    });
                }
                AgentOutput::Adopted(ctrl_list) => {
                    self.rehome();
                    self.probe.epochs_adopted.fetch_add(1, Ordering::Relaxed);
                    self.emit(AgentEvent::EpochAdopted { ctrl_list });
                }
                AgentOutput::Unanswered { kind, retries } => {
                    if retries <= MAX_RETRIES {
                        self.raise(kind, retries);
                    }
                }
                AgentOutput::Closed(outcome) => {
                    self.ctxs.remove(&outcome.key.seq);
                }
            }
        }
    }

    /// Points the agent's connections at the machine's controller list
    /// (Step 0 or an accepted reassignment).
    fn rehome(&mut self) {
        let list = self.machine.ctrl_list().to_vec();
        for (_, conn) in self.conns.extract_if(|c, _| !list.contains(c)) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for c in list {
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
        let hello = SbMsg::Hello {
            switch: self.machine.switch().0 as u64,
        };
        if sb_stream(&stream).is_err() || write_sb_frame(&mut stream, &hello).is_err() {
            return false;
        }
        let Ok(reader) = stream.try_clone() else {
            return false;
        };
        let tx = self.inbox.clone();
        let _ = thread::Builder::new()
            .name(format!(
                "curb-sagent-{}-rx-{controller}",
                self.machine.switch().0
            ))
            .spawn(move || reply_reader(reader, controller, tx));
        self.conns.insert(controller, stream);
        true
    }

    /// Sends `msg` to `controller`, dialling it first if needed. A
    /// failed write closes the connection; the next send re-dials.
    fn write_to(&mut self, controller: usize, msg: &SbMsg) {
        if !self.ensure_connected(controller) {
            return;
        }
        if let Some(stream) = self.conns.get_mut(&controller) {
            if write_sb_frame(stream, msg).is_err() {
                let _ = stream.shutdown(Shutdown::Both);
                self.conns.remove(&controller);
            }
        }
    }
}

/// Reads reply frames off one controller connection until it closes.
fn reply_reader(mut stream: TcpStream, controller: usize, tx: Sender<Inbox>) {
    // Zero-copy decode: reads land straight in the decoder's shared
    // block; the reply scratch vec is reused across reads.
    let mut decoder = SharedDecoder::new(SB_MAX_FRAME);
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
                Some(SbMsg::Reply { key, config, .. }) => {
                    if tx.send(Inbox::Reply(controller, key, config)).is_err() {
                        return;
                    }
                }
                Some(_) => {} // ignore non-reply frames from controllers
                None => return,
            }
        }
    }
}
