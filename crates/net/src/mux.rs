//! Node-level multiplexed transport: one socket pair per node pair,
//! many consensus instances ("lanes") sharing it.
//!
//! A Curb controller participates in several consensus instances at
//! once — its own group's intra-group PBFT plus, for committee
//! members, the final committee — and a naive deployment would open a
//! full mesh of sockets *per instance*. [`MuxTransport`] instead runs
//! **one** listener and one connection pair per controller node and
//! multiplexes every instance over it using the lane-frame codec
//! ([`crate::frame::decode_lane_frame_ref`]): each frame body carries
//! a `lane:u64` prefix naming the instance, and the reserved
//! [`APP_LANE`](crate::frame::APP_LANE) carries opaque application
//! bytes (the cluster's AGREE / FINAL-AGREE / epoch-control messages).
//!
//! Since the sharded-reactor rework the backbone is no longer a pile
//! of blocking threads: all of a node's sockets — across **every**
//! lane and peer — are serviced by one shared [`ShardPool`]
//! ([`MuxConfig::shards`] event-loop threads, peers hash-pinned to
//! shards). Inbound lane frames arrive as zero-copy
//! [`FrameRef`] views over the shard's read buffer; [`AppEvent`]
//! hands those views to the application untouched, and consensus
//! messages decode straight out of them.
//!
//! Consensus code never sees the mux: [`MuxTransport::lane`] returns a
//! [`Lane`] that implements [`Transport`] with *lane-local* replica
//! ids (index into the lane's member list), so an unmodified
//! [`NetRunner`](crate::NetRunner) drives each instance. Lane ids are
//! chosen by the caller; the cluster runtime makes them epoch-scoped,
//! so traffic from a stale epoch arrives on a lane nobody registered
//! and is dropped — epoch fencing falls out of the addressing scheme.
//!
//! The handshake is the shared 32-byte hello ([`crate::encode_hello`])
//! with the node id in the peer-id field, the node count in the
//! group-size field and [`MuxConfig::cluster_id`] in the group-id
//! field: a peer from a different cluster (or speaking wire v1) is
//! rejected before any frame is exchanged.

use crate::frame::{
    decode_lane_frame_ref, encode_lane_app_into, encode_lane_msg_into, FrameRef, LaneFrame,
    DEFAULT_MAX_FRAME,
};
use crate::reactor::{ReactorConfig, ShardPool, ShardSink};
use crate::transport::{NetEvent, Transport};
use curb_consensus::{PayloadCodec, PbftMsg, ReplicaId};
use curb_telemetry::Registry;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Index of a controller node (a process), as opposed to a
/// [`ReplicaId`], which is an index *within one lane's member list*.
pub type NodeId = usize;

/// Tuning knobs for [`MuxTransport`].
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Maximum frame body size accepted or sent.
    pub max_frame: usize,
    /// First reconnect delay after a failed dial or dropped connection.
    pub backoff_base: Duration,
    /// Cap on the exponential reconnect delay.
    pub backoff_max: Duration,
    /// Timeout for a single dial attempt.
    pub dial_timeout: Duration,
    /// Shard timer-wheel granularity (historically the blocking-thread
    /// poll interval; the name is kept for configuration compat).
    pub poll_interval: Duration,
    /// Per-peer outbound queue depth. The byte watermark handed to the
    /// shard pool is derived from this (`queue_capacity * 2 KiB`);
    /// overflowing it drops the ring and reconnects.
    pub queue_capacity: usize,
    /// Writer coalescing limit in bytes per vectored write burst.
    pub coalesce_bytes: usize,
    /// Cluster instance id stamped into the handshake group-id field;
    /// nodes of a different cluster are rejected at the handshake.
    pub cluster_id: u64,
    /// Number of reactor shards the node's sockets are partitioned
    /// across (clamped to `1..=`[`crate::reactor::MAX_SHARDS`]).
    pub shards: usize,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            max_frame: DEFAULT_MAX_FRAME,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(2),
            dial_timeout: Duration::from_millis(500),
            poll_interval: Duration::from_millis(4),
            queue_capacity: 4096,
            coalesce_bytes: 256 << 10,
            cluster_id: 0,
            shards: 1,
        }
    }
}

impl MuxConfig {
    /// The reactor configuration the node backbone runs on.
    fn reactor(&self) -> ReactorConfig {
        ReactorConfig {
            max_frame: self.max_frame,
            backoff_base: self.backoff_base,
            backoff_max: self.backoff_max,
            dial_timeout: self.dial_timeout,
            high_watermark: self.queue_capacity.saturating_mul(2 << 10).max(64 << 10),
            coalesce_bytes: self.coalesce_bytes,
            tick: self.poll_interval,
            group_id: self.cluster_id,
            shards: self.shards,
        }
    }
}

/// Opaque application bytes received from another node's [`APP_LANE`].
///
/// `bytes` is a zero-copy [`FrameRef`] view into the receiving shard's
/// read buffer (it derefs to `&[u8]`); holding it defers only that
/// buffer block's reuse.
///
/// [`APP_LANE`]: crate::frame::APP_LANE
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppEvent {
    /// The sending node.
    pub from: NodeId,
    /// The undecoded application bytes.
    pub bytes: FrameRef,
}

/// A registered lane's routing state.
struct LaneState<P> {
    /// Replica index → node id.
    members: Vec<NodeId>,
    events: Sender<NetEvent<P>>,
}

/// The inbound half of the mux: routes decoded lane frames to their
/// instances. This is what the shard threads hold — deliberately free
/// of the [`ShardPool`] itself, so the pool's thread handles are never
/// kept alive by the threads they join.
struct MuxRouter<P> {
    node: NodeId,
    lanes: Mutex<HashMap<u64, LaneState<P>>>,
    app_tx: Sender<AppEvent>,
}

impl<P> MuxRouter<P> {
    /// Routes an inbound consensus message to its lane, translating
    /// the sender's node id into the lane-local replica index. Frames
    /// for unregistered lanes (stale epochs) and from nodes outside
    /// the lane's membership are dropped.
    fn route_msg(&self, from: NodeId, lane: u64, msg: PbftMsg<P>) {
        let lanes = self.lanes.lock().expect("lane table poisoned");
        let Some(state) = lanes.get(&lane) else {
            return;
        };
        let Some(replica) = state.members.iter().position(|&n| n == from) else {
            return;
        };
        let _ = state.events.send(NetEvent::Inbound { from: replica, msg });
    }

    /// Fans a peer-connectivity transition out to every lane the peer
    /// is a member of, with the lane-local replica index.
    fn route_peer(&self, node: NodeId, up: bool) {
        let lanes = self.lanes.lock().expect("lane table poisoned");
        for state in lanes.values() {
            if let Some(replica) = state.members.iter().position(|&n| n == node) {
                let event = if up {
                    NetEvent::PeerUp(replica)
                } else {
                    NetEvent::PeerDown(replica)
                };
                let _ = state.events.send(event);
            }
        }
    }
}

impl<P: PayloadCodec + Send + 'static> ShardSink for MuxRouter<P> {
    fn on_frame(&self, from: usize, frame: FrameRef) {
        match decode_lane_frame_ref::<P>(&frame) {
            // A malformed frame is dropped but the connection survives:
            // framing is still intact, so later frames decode fine.
            Err(_) => {}
            Ok(LaneFrame::Msg { lane, msg }) => self.route_msg(from, lane, msg),
            Ok(LaneFrame::App(bytes)) => {
                let _ = self.app_tx.send(AppEvent { from, bytes });
            }
        }
    }

    fn on_peer(&self, from: usize, up: bool) {
        self.route_peer(from, up);
    }
}

/// The outbound half shared by the transport and its lanes: the shard
/// pool plus enough config to frame and cap outgoing bodies.
struct MuxCore<P> {
    router: Arc<MuxRouter<P>>,
    pool: ShardPool,
    max_frame: usize,
    n_nodes: usize,
}

impl<P> MuxCore<P> {
    /// Queues one already-encoded lane-frame body for `node`. Frames
    /// to unreachable or hopelessly slow peers are dropped — both the
    /// consensus layer and the cluster protocol tolerate loss.
    fn enqueue(&self, node: NodeId, body: &[u8]) {
        if body.len() > self.max_frame {
            return;
        }
        self.pool.enqueue(node, Arc::from(body));
    }
}

/// One consensus instance's view of the shared node backbone.
///
/// Implements [`Transport`] with lane-local replica ids, so a
/// [`NetRunner`](crate::NetRunner) drives it exactly like a dedicated
/// [`ReactorTransport`](crate::ReactorTransport). [`shutdown`] unregisters the
/// lane: later inbound frames for it are dropped, which is how a
/// finished epoch's instances leave the wire without tearing down the
/// node's sockets.
///
/// [`shutdown`]: Transport::shutdown
pub struct Lane<P> {
    id: u64,
    local_index: ReplicaId,
    members: Vec<NodeId>,
    core: Arc<MuxCore<P>>,
    events: Mutex<Receiver<NetEvent<P>>>,
    encode_buf: Mutex<Vec<u8>>,
}

impl<P: PayloadCodec + Send + 'static> Transport<P> for Lane<P> {
    fn local_id(&self) -> ReplicaId {
        self.local_index
    }

    fn group_size(&self) -> usize {
        self.members.len()
    }

    fn send(&self, to: ReplicaId, msg: &PbftMsg<P>) {
        let Some(&node) = self.members.get(to) else {
            return;
        };
        if node == self.core.router.node {
            return;
        }
        let mut body = self.encode_buf.lock().expect("encode buffer poisoned");
        body.clear();
        encode_lane_msg_into(self.id, msg, &mut body);
        self.core.enqueue(node, &body);
    }

    fn broadcast(&self, msg: &PbftMsg<P>) {
        // Encode once; every peer ring shares the same bytes via the
        // per-frame `Arc` inside `enqueue`.
        let mut body = self.encode_buf.lock().expect("encode buffer poisoned");
        body.clear();
        encode_lane_msg_into(self.id, msg, &mut body);
        for (replica, &node) in self.members.iter().enumerate() {
            if replica != self.local_index {
                self.core.enqueue(node, &body);
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<NetEvent<P>> {
        self.events
            .lock()
            .expect("event queue poisoned")
            .recv_timeout(timeout)
            .ok()
    }

    fn try_recv(&self) -> Option<NetEvent<P>> {
        self.events
            .lock()
            .expect("event queue poisoned")
            .try_recv()
            .ok()
    }

    fn shutdown(&self) {
        self.core
            .router
            .lanes
            .lock()
            .expect("lane table poisoned")
            .remove(&self.id);
    }
}

/// The shared node backbone: one listener, one connection pair per
/// peer node, any number of registered [`Lane`]s on top — all driven
/// by one [`ShardPool`] of event-loop threads.
pub struct MuxTransport<P> {
    core: Arc<MuxCore<P>>,
    app_rx: Mutex<Receiver<AppEvent>>,
    app_loopback: Sender<AppEvent>,
    registry: Registry,
}

impl<P: PayloadCodec + Send + 'static> MuxTransport<P> {
    /// Binds node `node` of the cluster whose node addresses are
    /// `addrs` (index = node id) on `listener`.
    ///
    /// # Errors
    ///
    /// Propagates listener / event-loop configuration failures.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for `addrs`.
    pub fn bind(
        node: NodeId,
        listener: TcpListener,
        addrs: Vec<SocketAddr>,
        cfg: MuxConfig,
    ) -> io::Result<MuxTransport<P>> {
        Self::bind_with_registry(node, listener, addrs, cfg, Registry::new())
    }

    /// Like [`MuxTransport::bind`], but publishes the backbone's
    /// `net.*` metrics (shard gauges, decode-copy counter, latency
    /// histograms) into the caller's `registry`.
    ///
    /// # Errors
    ///
    /// Propagates listener / event-loop configuration failures.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for `addrs`.
    pub fn bind_with_registry(
        node: NodeId,
        listener: TcpListener,
        addrs: Vec<SocketAddr>,
        cfg: MuxConfig,
        registry: Registry,
    ) -> io::Result<MuxTransport<P>> {
        assert!(node < addrs.len(), "node id {node} out of range");
        let (app_tx, app_rx) = channel();
        let n_nodes = addrs.len();
        let router = Arc::new(MuxRouter::<P> {
            node,
            lanes: Mutex::new(HashMap::new()),
            app_tx: app_tx.clone(),
        });
        let pool = ShardPool::bind(
            node,
            listener,
            addrs,
            cfg.reactor(),
            &registry,
            Arc::clone(&router),
            "curb-mux",
        )?;
        Ok(MuxTransport {
            core: Arc::new(MuxCore {
                router,
                pool,
                max_frame: cfg.max_frame,
                n_nodes,
            }),
            app_rx: Mutex::new(app_rx),
            app_loopback: app_tx,
            registry,
        })
    }

    /// The local node id.
    pub fn node(&self) -> NodeId {
        self.core.router.node
    }

    /// Number of nodes in the cluster (including this one).
    pub fn n_nodes(&self) -> usize {
        self.core.n_nodes
    }

    /// The address the backbone listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.core.pool.local_addr()
    }

    /// The number of reactor shards serving this backbone.
    pub fn shards(&self) -> usize {
        self.core.pool.shards()
    }

    /// The registry the backbone publishes its `net.*` metrics into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The link-fault injection handle for this node's backbone: cut
    /// or slow this node's outbound links to individual peer nodes
    /// while the cluster runs (partitions, churn, slow WAN links).
    pub fn faults(&self) -> Arc<crate::fault::LinkFaults> {
        self.core.pool.faults()
    }

    /// Registers consensus instance `lane_id` with the given member
    /// nodes (replica index = position in `members`) and returns its
    /// [`Transport`] handle. Registering an id again replaces the
    /// previous registration (the old lane's events stop).
    ///
    /// # Panics
    ///
    /// Panics if the local node is not in `members` — a node only
    /// hosts replicas for instances it belongs to.
    pub fn lane(&self, lane_id: u64, members: Vec<NodeId>) -> Lane<P> {
        let local_index = members
            .iter()
            .position(|&n| n == self.core.router.node)
            .expect("local node must be a lane member");
        let (tx, rx) = channel();
        self.core
            .router
            .lanes
            .lock()
            .expect("lane table poisoned")
            .insert(
                lane_id,
                LaneState {
                    members: members.clone(),
                    events: tx,
                },
            );
        Lane {
            id: lane_id,
            local_index,
            members,
            core: Arc::clone(&self.core),
            events: Mutex::new(rx),
            encode_buf: Mutex::new(Vec::new()),
        }
    }

    /// Sends opaque application bytes to `to`'s [`APP_LANE`]. Sending
    /// to the local node delivers through the local app queue without
    /// touching a socket.
    ///
    /// [`APP_LANE`]: crate::frame::APP_LANE
    pub fn send_app(&self, to: NodeId, bytes: &[u8]) {
        if to == self.core.router.node {
            let _ = self.app_loopback.send(AppEvent {
                from: to,
                bytes: FrameRef::copied(bytes),
            });
            return;
        }
        let mut body = Vec::with_capacity(bytes.len() + 8);
        encode_lane_app_into(bytes, &mut body);
        self.core.enqueue(to, &body);
    }

    /// Sends application bytes to every node except the local one.
    pub fn broadcast_app(&self, bytes: &[u8]) {
        let mut body = Vec::with_capacity(bytes.len() + 8);
        encode_lane_app_into(bytes, &mut body);
        for node in 0..self.core.n_nodes {
            if node != self.core.router.node {
                self.core.enqueue(node, &body);
            }
        }
    }

    /// Waits up to `timeout` for the next application event.
    pub fn recv_app(&self, timeout: Duration) -> Option<AppEvent> {
        self.app_rx
            .lock()
            .expect("app queue poisoned")
            .recv_timeout(timeout)
            .ok()
    }

    /// Stops the backbone's event loops. Idempotent; lanes registered
    /// on this mux stop receiving events.
    pub fn shutdown(&self) {
        self.core.pool.shutdown();
    }
}

impl<P> Drop for MuxTransport<P> {
    fn drop(&mut self) {
        // Flag the shards down now; the pool's own Drop joins them
        // when the last lane releases the core.
        self.core.pool.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::append_frame;
    use crate::handshake::encode_hello;
    use curb_consensus::{BytesPayload, Payload};
    use std::io::Write;
    use std::net::TcpStream;

    fn fast_cfg() -> MuxConfig {
        MuxConfig {
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(100),
            poll_interval: Duration::from_millis(1),
            ..MuxConfig::default()
        }
    }

    fn bind_nodes(n: usize, cfg: &MuxConfig) -> Vec<MuxTransport<BytesPayload>> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect();
        listeners
            .into_iter()
            .enumerate()
            .map(|(id, l)| MuxTransport::bind(id, l, addrs.clone(), cfg.clone()).expect("bind"))
            .collect()
    }

    fn p(b: &[u8]) -> BytesPayload {
        BytesPayload(b.to_vec())
    }

    fn wait_inbound(lane: &Lane<BytesPayload>, want_from: ReplicaId) -> PbftMsg<BytesPayload> {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match lane.recv_timeout(Duration::from_millis(100)) {
                Some(NetEvent::Inbound { from, msg }) if from == want_from => return msg,
                Some(_) => continue,
                None => assert!(
                    std::time::Instant::now() < deadline,
                    "timed out waiting for inbound on lane"
                ),
            }
        }
    }

    #[test]
    fn two_lanes_share_one_backbone_without_crosstalk() {
        let nodes = bind_nodes(3, &fast_cfg());
        // Lane 7: nodes {0, 1}; lane 9: nodes {1, 2}. Node 1 sits on
        // both with different replica indices.
        let a0 = nodes[0].lane(7, vec![0, 1]);
        let a1 = nodes[1].lane(7, vec![0, 1]);
        let b1 = nodes[1].lane(9, vec![1, 2]);
        let b2 = nodes[2].lane(9, vec![1, 2]);

        let pa = p(b"lane seven");
        let ma = PbftMsg::PrePrepare {
            view: 0,
            seq: 1,
            digest: pa.digest(),
            payload: pa,
        };
        let pb = p(b"lane nine");
        let mb = PbftMsg::PrePrepare {
            view: 0,
            seq: 2,
            digest: pb.digest(),
            payload: pb,
        };
        a0.send(1, &ma);
        b2.send(0, &mb);
        assert_eq!(wait_inbound(&a1, 0), ma);
        assert_eq!(wait_inbound(&b1, 1), mb);
        // No crosstalk: the other lanes stay silent.
        assert!(!matches!(
            a0.recv_timeout(Duration::from_millis(50)),
            Some(NetEvent::Inbound { .. })
        ));
        assert!(!matches!(
            b2.recv_timeout(Duration::from_millis(50)),
            Some(NetEvent::Inbound { .. })
        ));
    }

    #[test]
    fn unregistered_lane_traffic_is_dropped() {
        let nodes = bind_nodes(2, &fast_cfg());
        let l0 = nodes[0].lane(1, vec![0, 1]);
        let l1 = nodes[1].lane(1, vec![0, 1]);
        // A stale-epoch lane nobody registered at node 1.
        let stale = nodes[0].lane(999, vec![0, 1]);
        let d = p(b"x").digest();
        let msg = PbftMsg::Prepare {
            view: 0,
            seq: 1,
            digest: d,
        };
        stale.send(1, &msg);
        l0.send(1, &msg);
        // The registered lane's message arrives; the stale one never
        // surfaces anywhere.
        assert_eq!(wait_inbound(&l1, 0), msg);
        assert!(!matches!(
            l1.recv_timeout(Duration::from_millis(50)),
            Some(NetEvent::Inbound { .. })
        ));
    }

    #[test]
    fn lane_shutdown_fences_late_frames() {
        let nodes = bind_nodes(2, &fast_cfg());
        let l0 = nodes[0].lane(4, vec![0, 1]);
        let l1 = nodes[1].lane(4, vec![0, 1]);
        let msg = PbftMsg::Prepare {
            view: 0,
            seq: 1,
            digest: p(b"x").digest(),
        };
        l0.send(1, &msg);
        assert_eq!(wait_inbound(&l1, 0), msg);
        // Unregister at node 1: frames still sent by node 0 must die
        // at the routing table, not surface on the dead lane.
        l1.shutdown();
        l0.send(1, &msg);
        assert_eq!(l1.recv_timeout(Duration::from_millis(100)), None);
    }

    #[test]
    fn app_frames_round_trip_and_loop_back() {
        let nodes = bind_nodes(2, &fast_cfg());
        nodes[0].send_app(1, b"agree: group 3");
        let got = nodes[1]
            .recv_app(Duration::from_secs(5))
            .expect("app frame arrives");
        assert_eq!(
            got,
            AppEvent {
                from: 0,
                bytes: FrameRef::copied(b"agree: group 3"),
            }
        );
        // Local delivery skips the socket entirely.
        nodes[1].send_app(1, b"note to self");
        let local = nodes[1]
            .recv_app(Duration::from_secs(1))
            .expect("loopback app frame");
        assert_eq!(&local.bytes[..], b"note to self");
        // Broadcast reaches the other node.
        nodes[1].broadcast_app(b"final block");
        let b = nodes[0]
            .recv_app(Duration::from_secs(5))
            .expect("broadcast");
        assert_eq!((b.from, &b.bytes[..]), (1, &b"final block"[..]));
    }

    #[test]
    fn sharded_backbone_routes_lanes_and_app_frames() {
        // 4 nodes, 2 shards: peers are split across event loops, and
        // inbound connections from odd peers are handed off shard 0 →
        // shard 1. Lane traffic and app frames must still route.
        let cfg = MuxConfig {
            shards: 2,
            ..fast_cfg()
        };
        let nodes = bind_nodes(4, &cfg);
        assert_eq!(nodes[0].shards(), 2);
        let lanes: Vec<Lane<BytesPayload>> =
            nodes.iter().map(|n| n.lane(11, vec![0, 1, 2, 3])).collect();
        let msg = PbftMsg::Prepare {
            view: 3,
            seq: 1,
            digest: p(b"sharded").digest(),
        };
        lanes[3].broadcast(&msg);
        for lane in &lanes[..3] {
            assert_eq!(wait_inbound(lane, 3), msg);
        }
        nodes[2].broadcast_app(b"epoch 9");
        for r in [0usize, 1, 3] {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                match nodes[r].recv_app(Duration::from_millis(100)) {
                    Some(ev) if ev.from == 2 => {
                        assert_eq!(&ev.bytes[..], b"epoch 9");
                        break;
                    }
                    Some(_) => continue,
                    None => assert!(
                        std::time::Instant::now() < deadline,
                        "node {r} never got the app broadcast"
                    ),
                }
            }
        }
        // Zero-copy all the way: routing shares the shard's buffer.
        assert_eq!(
            nodes[0].registry().counter("net.decode_copy_bytes").get(),
            0
        );
    }

    #[test]
    fn wrong_cluster_id_is_rejected_at_handshake() {
        let nodes = bind_nodes(2, &fast_cfg());
        let l1 = nodes[1].lane(0, vec![0, 1]);
        // A dialer claiming node 0 of a *different* cluster.
        let mut s = TcpStream::connect(nodes[1].local_addr()).expect("connect");
        s.write_all(&encode_hello(0, 2, 77)).expect("write");
        let mut body = Vec::new();
        encode_lane_msg_into(
            0,
            &PbftMsg::<BytesPayload>::Prepare {
                view: 0,
                seq: 1,
                digest: p(b"x").digest(),
            },
            &mut body,
        );
        let mut framed = Vec::new();
        append_frame(&mut framed, &body);
        let _ = s.write_all(&framed);
        // The backbone dials peers eagerly, so node 0's legitimate
        // connection may surface as PeerUp — but nothing the foreign
        // dialer sent may ever decode into an Inbound.
        let deadline = std::time::Instant::now() + Duration::from_millis(300);
        while std::time::Instant::now() < deadline {
            assert!(!matches!(
                l1.recv_timeout(Duration::from_millis(50)),
                Some(NetEvent::Inbound { .. })
            ));
        }
    }
}
