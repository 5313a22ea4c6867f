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
//! All of a node's sockets — across **every** lane and peer — are
//! serviced by one event-loop thread ([`Reactor`]). Inbound lane
//! frames arrive as zero-copy [`FrameRef`] views over the loop's read
//! buffer; [`AppEvent`] hands those views to the application
//! untouched, and consensus messages decode straight out of them.
//!
//! Consensus code never sees the mux: [`MuxTransport::lane`] returns a
//! [`Lane`] that implements [`Transport`] with *lane-local* replica
//! ids (index into the lane's member list), so an unmodified
//! [`NetRunner`](crate::NetRunner) drives each instance. Lane ids are
//! chosen by the caller; the cluster runtime makes them epoch-scoped,
//! so traffic from a stale epoch arrives on a lane nobody registered
//! and is dropped — epoch fencing falls out of the addressing scheme.
//! The demux counts every frame it drops, by reason:
//! `net.demux_unknown_lane`, `net.demux_not_member` and
//! `net.demux_malformed`.
//!
//! [`ReactorTransport`] is the one-lane case: a mux plus a lane over
//! all `n` members, for a single flat consensus group.
//!
//! The handshake is the shared 32-byte hello ([`crate::encode_hello`])
//! with the node id in the peer-id field, the node count in the
//! group-size field and [`ReactorConfig::group_id`] in the group-id
//! field: a peer from a different cluster (or speaking wire v1) is
//! rejected before any frame is exchanged.

use crate::fault::LinkFaults;
use crate::frame::{
    decode_lane_frame_ref, encode_lane_app_into, encode_lane_msg_into, FrameRef, LaneFrame,
};
use crate::reactor::{FrameSink, Reactor, ReactorConfig};
use crate::transport::{NetEvent, Transport};
use curb_consensus::{PayloadCodec, PbftMsg, ReplicaId};
use curb_telemetry::{Counter, Registry};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Index of a controller node (a process), as opposed to a
/// [`ReplicaId`], which is an index *within one lane's member list*.
pub type NodeId = usize;

/// Opaque application bytes received from another node's [`APP_LANE`].
///
/// `bytes` is a zero-copy [`FrameRef`] view into the event loop's read
/// buffer (it derefs to `&[u8]`); holding it defers only that buffer
/// block's reuse.
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
/// instances. This is what the loop thread holds — deliberately free
/// of the [`Reactor`] itself, so the reactor's thread handle is never
/// kept alive by the thread it joins.
struct MuxRouter<P> {
    node: NodeId,
    lanes: Mutex<HashMap<u64, LaneState<P>>>,
    app_tx: Sender<AppEvent>,
    /// Frames for a lane nobody registered (a stale or not yet opened
    /// epoch).
    unknown_lane: Counter,
    /// Frames from a node outside the lane's membership.
    not_member: Counter,
    /// Frame bodies that failed to decode.
    malformed: Counter,
}

impl<P> MuxRouter<P> {
    /// A router for node `node` with no lanes yet, and the receiving
    /// end of its application queue.
    fn new(node: NodeId, registry: &Registry) -> (MuxRouter<P>, Receiver<AppEvent>) {
        let (app_tx, app_rx) = channel();
        let router = MuxRouter {
            node,
            lanes: Mutex::new(HashMap::new()),
            app_tx,
            unknown_lane: registry.counter("net.demux_unknown_lane"),
            not_member: registry.counter("net.demux_not_member"),
            malformed: registry.counter("net.demux_malformed"),
        };
        (router, app_rx)
    }

    /// Registers (or replaces) lane `lane` and returns its event queue.
    fn register(&self, lane: u64, members: Vec<NodeId>) -> Receiver<NetEvent<P>> {
        let (events, rx) = channel();
        self.lanes
            .lock()
            .expect("lane table poisoned")
            .insert(lane, LaneState { members, events });
        rx
    }

    /// Routes an inbound consensus message to its lane, translating
    /// the sender's node id into the lane-local replica index. Frames
    /// for unregistered lanes (stale epochs) and from nodes outside
    /// the lane's membership are dropped and counted.
    fn route_msg(&self, from: NodeId, lane: u64, msg: PbftMsg<P>) {
        let lanes = self.lanes.lock().expect("lane table poisoned");
        let Some(state) = lanes.get(&lane) else {
            self.unknown_lane.inc();
            return;
        };
        let Some(replica) = state.members.iter().position(|&n| n == from) else {
            self.not_member.inc();
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

impl<P: PayloadCodec + Send + 'static> FrameSink for MuxRouter<P> {
    fn on_frame(&self, from: usize, frame: FrameRef) {
        match decode_lane_frame_ref::<P>(&frame) {
            // A malformed frame is dropped but the connection survives:
            // framing is still intact, so later frames decode fine.
            Err(_) => self.malformed.inc(),
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

/// The outbound half shared by the transport and its lanes: the
/// reactor plus enough config to frame and cap outgoing bodies.
struct MuxCore<P> {
    router: Arc<MuxRouter<P>>,
    reactor: Reactor,
    max_frame: usize,
    n_nodes: usize,
}

impl<P> MuxCore<P> {
    /// Copies one encoded lane-frame body into an `Arc` every peer
    /// ring can share. A body over `max_frame` is dropped and counted
    /// in [`MuxTransport::dropped_frames`] — both the consensus layer
    /// and the cluster protocol tolerate loss.
    fn share(&self, body: &[u8]) -> Option<Arc<[u8]>> {
        if body.len() > self.max_frame {
            self.reactor.count_dropped();
            return None;
        }
        Some(Arc::from(body))
    }

    /// Frames application bytes for the [`APP_LANE`](crate::frame::APP_LANE).
    fn app_frame(&self, bytes: &[u8]) -> Option<Arc<[u8]>> {
        let mut body = Vec::with_capacity(bytes.len() + 8);
        encode_lane_app_into(bytes, &mut body);
        self.share(&body)
    }
}

/// One consensus instance's view of the shared node backbone.
///
/// Implements [`Transport`] with lane-local replica ids, so a
/// [`NetRunner`](crate::NetRunner) drives it like any transport.
/// [`shutdown`] unregisters the lane: later inbound frames for it are
/// dropped, which is how a finished epoch's instances leave the wire
/// without tearing down the node's sockets.
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

impl<P: PayloadCodec> Lane<P> {
    fn new(
        id: u64,
        local_index: ReplicaId,
        members: Vec<NodeId>,
        core: Arc<MuxCore<P>>,
        events: Receiver<NetEvent<P>>,
    ) -> Lane<P> {
        Lane {
            id,
            local_index,
            members,
            core,
            events: Mutex::new(events),
            encode_buf: Mutex::new(Vec::new()),
        }
    }

    /// Encodes `msg` once into a lane-frame body all peer rings share.
    fn encode(&self, msg: &PbftMsg<P>) -> Option<Arc<[u8]>> {
        let mut body = self.encode_buf.lock().expect("encode buffer poisoned");
        body.clear();
        encode_lane_msg_into(self.id, msg, &mut body);
        self.core.share(&body)
    }
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
        if let Some(frame) = self.encode(msg) {
            self.core.reactor.enqueue(node, frame);
        }
    }

    fn broadcast(&self, msg: &PbftMsg<P>) {
        let Some(frame) = self.encode(msg) else {
            return;
        };
        for (replica, &node) in self.members.iter().enumerate() {
            if replica != self.local_index {
                self.core.reactor.enqueue(node, Arc::clone(&frame));
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
/// by one event-loop thread.
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
        cfg: ReactorConfig,
    ) -> io::Result<MuxTransport<P>> {
        Self::bind_with_registry(node, listener, addrs, cfg, Registry::new())
    }

    /// Like [`MuxTransport::bind`], but publishes the backbone's
    /// `net.*` metrics (connection gauge, demux drop and decode-copy
    /// counters, latency histograms) into the caller's `registry`.
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
        cfg: ReactorConfig,
        registry: Registry,
    ) -> io::Result<MuxTransport<P>> {
        let (router, app_rx) = MuxRouter::new(node, &registry);
        Self::start(router, app_rx, listener, addrs, cfg, registry)
    }

    /// Starts the event loop behind `router`. Lanes registered on the
    /// router beforehand see every frame and peer transition.
    fn start(
        router: MuxRouter<P>,
        app_rx: Receiver<AppEvent>,
        listener: TcpListener,
        addrs: Vec<SocketAddr>,
        cfg: ReactorConfig,
        registry: Registry,
    ) -> io::Result<MuxTransport<P>> {
        let node = router.node;
        let app_loopback = router.app_tx.clone();
        let router = Arc::new(router);
        let n_nodes = addrs.len();
        let max_frame = cfg.max_frame;
        let reactor = Reactor::bind(node, listener, addrs, cfg, &registry, Arc::clone(&router))?;
        Ok(MuxTransport {
            core: Arc::new(MuxCore {
                router,
                reactor,
                max_frame,
                n_nodes,
            }),
            app_rx: Mutex::new(app_rx),
            app_loopback,
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
        self.core.reactor.local_addr()
    }

    /// The registry the backbone publishes its `net.*` metrics into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Frames dropped since startup: oversize at send time plus
    /// watermark overflow.
    pub fn dropped_frames(&self) -> usize {
        self.core.reactor.dropped_frames()
    }

    /// The link-fault injection handle for this node's backbone: cut
    /// or slow this node's outbound links to individual peer nodes
    /// while the cluster runs (partitions, churn, slow WAN links).
    pub fn faults(&self) -> Arc<LinkFaults> {
        self.core.reactor.faults()
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
            .position(|&n| n == self.node())
            .expect("local node must be a lane member");
        let events = self.core.router.register(lane_id, members.clone());
        Lane::new(
            lane_id,
            local_index,
            members,
            Arc::clone(&self.core),
            events,
        )
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
        if let Some(frame) = self.core.app_frame(bytes) {
            self.core.reactor.enqueue(to, frame);
        }
    }

    /// Sends application bytes to every node except the local one,
    /// framed once and shared by every peer ring.
    pub fn broadcast_app(&self, bytes: &[u8]) {
        let Some(frame) = self.core.app_frame(bytes) else {
            return;
        };
        for node in 0..self.core.n_nodes {
            if node != self.core.router.node {
                self.core.reactor.enqueue(node, Arc::clone(&frame));
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

    /// Stops the backbone's event loop. Idempotent; lanes registered
    /// on this mux stop receiving events.
    pub fn shutdown(&self) {
        self.core.reactor.shutdown();
    }
}

impl<P> Drop for MuxTransport<P> {
    fn drop(&mut self) {
        // Flag the loop down now; the reactor's own Drop joins it when
        // the last lane releases the core.
        self.core.reactor.shutdown();
    }
}

/// The lane a [`ReactorTransport`] runs its one group on.
const GROUP_LANE: u64 = 0;

/// A [`Transport`] for one flat consensus group over real TCP
/// sockets: the one-lane case of [`MuxTransport`], with a lane over
/// all `n` members, driven by one event-loop thread.
///
/// Bind each replica with [`ReactorTransport::bind`], giving every
/// replica the same ordered list of peer addresses (index = replica
/// id). [`Transport::shutdown`] stops the loop and frees the port.
pub struct ReactorTransport<P> {
    // Field order is drop order: the mux flags the loop down, then the
    // lane releases the last handle on the reactor, which joins it.
    mux: MuxTransport<P>,
    lane: Lane<P>,
}

impl<P: PayloadCodec + Send + 'static> ReactorTransport<P> {
    /// Starts the transport for replica `id` on `listener`.
    ///
    /// `peer_addrs[i]` must be where replica `i` listens;
    /// `peer_addrs[id]` is this replica's own address. The loop begins
    /// dialing peers immediately; peers that are not up yet are
    /// retried with capped exponential backoff off the timer wheel.
    ///
    /// # Errors
    ///
    /// Returns any error from configuring the listener, the epoll
    /// instance or the wake pipe.
    ///
    /// # Panics
    ///
    /// Panics if `id >= peer_addrs.len()`.
    pub fn bind(
        id: ReplicaId,
        listener: TcpListener,
        peer_addrs: Vec<SocketAddr>,
        cfg: ReactorConfig,
    ) -> io::Result<ReactorTransport<P>> {
        Self::bind_with_registry(id, listener, peer_addrs, cfg, Registry::new())
    }

    /// Like [`ReactorTransport::bind`], but publishes the transport's
    /// metrics into the caller's `registry` — share one registry with
    /// [`NetRunner::spawn_with_registry`] to see runner and transport
    /// metrics side by side.
    ///
    /// [`NetRunner::spawn_with_registry`]: crate::NetRunner::spawn_with_registry
    ///
    /// # Errors
    ///
    /// Returns any error from configuring the listener, the epoll
    /// instance or the wake pipe.
    ///
    /// # Panics
    ///
    /// Panics if `id >= peer_addrs.len()`.
    pub fn bind_with_registry(
        id: ReplicaId,
        listener: TcpListener,
        peer_addrs: Vec<SocketAddr>,
        cfg: ReactorConfig,
        registry: Registry,
    ) -> io::Result<ReactorTransport<P>> {
        let members: Vec<NodeId> = (0..peer_addrs.len()).collect();
        let (router, app_rx) = MuxRouter::new(id, &registry);
        // Registered before the loop starts, so no early frame or
        // peer-up from a fast peer can miss the lane.
        let events = router.register(GROUP_LANE, members.clone());
        let mux = MuxTransport::start(router, app_rx, listener, peer_addrs, cfg, registry)?;
        let lane = Lane::new(GROUP_LANE, id, members, Arc::clone(&mux.core), events);
        Ok(ReactorTransport { mux, lane })
    }

    /// The registry this transport publishes its metrics into.
    pub fn registry(&self) -> &Registry {
        self.mux.registry()
    }

    /// The address this transport's listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.mux.local_addr()
    }

    /// Peers with an established outbound connection right now.
    pub fn connected_peers(&self) -> usize {
        self.mux.core.reactor.connected_peers()
    }

    /// Frames dropped since startup: oversize at send time plus
    /// watermark overflow.
    pub fn dropped_frames(&self) -> usize {
        self.mux.dropped_frames()
    }

    /// The link-fault injection handle for this transport: cut or slow
    /// individual outbound links while the cluster runs.
    pub fn faults(&self) -> Arc<LinkFaults> {
        self.mux.faults()
    }
}

impl<P: PayloadCodec + Send + 'static> Transport<P> for ReactorTransport<P> {
    fn local_id(&self) -> ReplicaId {
        self.lane.local_id()
    }

    fn group_size(&self) -> usize {
        self.lane.group_size()
    }

    fn send(&self, to: ReplicaId, msg: &PbftMsg<P>) {
        self.lane.send(to, msg);
    }

    fn broadcast(&self, msg: &PbftMsg<P>) {
        self.lane.broadcast(msg);
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<NetEvent<P>> {
        self.lane.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Option<NetEvent<P>> {
        self.lane.try_recv()
    }

    fn shutdown(&self) {
        self.mux.shutdown();
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

    fn fast_cfg() -> ReactorConfig {
        ReactorConfig {
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(100),
            tick: Duration::from_millis(1),
            ..ReactorConfig::default()
        }
    }

    fn bind_nodes(n: usize, cfg: &ReactorConfig) -> Vec<MuxTransport<BytesPayload>> {
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
        // Zero-copy all the way: routing shares the loop's buffer.
        for node in &nodes {
            assert_eq!(node.registry().counter("net.decode_copy_bytes").get(), 0);
        }
    }

    #[test]
    fn unregistered_lane_traffic_is_dropped() {
        let nodes = bind_nodes(2, &fast_cfg());
        let l0 = nodes[0].lane(1, vec![0, 1]);
        let l1 = nodes[1].lane(1, vec![0, 1]);
        // A stale-epoch lane nobody registered at node 1.
        let stale = nodes[0].lane(999, vec![0, 1]);
        // Lane 5 at node 1 does not count node 0 as a member.
        let outsider = nodes[0].lane(5, vec![0, 1]);
        let _members_only = nodes[1].lane(5, vec![1]);
        let d = p(b"x").digest();
        let msg = PbftMsg::Prepare {
            view: 0,
            seq: 1,
            digest: d,
        };
        stale.send(1, &msg);
        outsider.send(1, &msg);
        l0.send(1, &msg);
        // The registered lane's message arrives; the others never
        // surface anywhere. One connection carries all three in
        // order, so both drops are counted by the time it lands.
        assert_eq!(wait_inbound(&l1, 0), msg);
        assert!(!matches!(
            l1.recv_timeout(Duration::from_millis(50)),
            Some(NetEvent::Inbound { .. })
        ));
        let registry = nodes[1].registry();
        assert_eq!(registry.counter("net.demux_unknown_lane").get(), 1);
        assert_eq!(registry.counter("net.demux_not_member").get(), 1);
        assert_eq!(registry.counter("net.demux_malformed").get(), 0);
    }

    #[test]
    fn oversize_lane_frames_are_dropped_and_counted() {
        let cfg = ReactorConfig {
            max_frame: 64,
            ..fast_cfg()
        };
        let nodes = bind_nodes(3, &cfg);
        let lane = nodes[0].lane(2, vec![0, 1, 2]);
        let big = p(&[7; 100]);
        let msg = PbftMsg::PrePrepare {
            view: 0,
            seq: 1,
            digest: big.digest(),
            payload: big,
        };
        // One frame per call, however many peers it would reach.
        lane.send(1, &msg);
        assert_eq!(nodes[0].dropped_frames(), 1);
        lane.broadcast(&msg);
        assert_eq!(nodes[0].dropped_frames(), 2);
        nodes[0].broadcast_app(&[0; 100]);
        assert_eq!(nodes[0].dropped_frames(), 3);
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
