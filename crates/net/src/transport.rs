//! The transport abstraction and its in-memory implementation.
//!
//! A [`Transport`] moves encoded [`PbftMsg`] frames between replicas
//! and funnels everything that arrives into a single event queue. The
//! consensus core stays sans-io: [`crate::NetRunner`] glues a
//! [`Replica`](curb_consensus::Replica) to any transport.
//!
//! [`LoopbackTransport`] is the deterministic in-memory implementation
//! used by unit and integration tests. It still round-trips every
//! message through the wire codec ([`crate::frame`]), so a loopback
//! cluster exercises the exact byte path a socket cluster does — only
//! the socket layer is skipped.
//!
//! State-transfer frames ride the same channel as every other
//! [`PbftMsg`]: a `STATE-RESPONSE` must fit one frame, which is why
//! serving replicas chunk responses
//! ([`crate::RunnerConfig::max_state_chunk`], wire-capped at
//! [`crate::frame::MAX_STATE_ENTRIES`]) instead of shipping an
//! arbitrarily long committed prefix in one message.

use crate::frame::{decode_msg, encode_msg};
use curb_consensus::{PayloadCodec, PbftMsg, ReplicaId};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

/// Something a transport delivered to the local replica.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEvent<P> {
    /// A protocol message from peer `from`.
    Inbound {
        /// The sending replica.
        from: ReplicaId,
        /// The decoded message.
        msg: PbftMsg<P>,
    },
    /// A peer completed its handshake on an inbound connection.
    PeerUp(ReplicaId),
    /// A peer's inbound connection dropped.
    PeerDown(ReplicaId),
}

/// A bidirectional message channel between one replica and its group.
///
/// Implementations must be cheap to share across threads: `send` and
/// `broadcast` take `&self` and may be called from the runner thread
/// while reader threads feed the event queue.
pub trait Transport<P>: Send {
    /// The local replica's id.
    fn local_id(&self) -> ReplicaId;

    /// Group size (including the local replica).
    fn group_size(&self) -> usize;

    /// Sends `msg` to replica `to`. Delivery is best-effort: transports
    /// drop (and later resend nothing for) messages to unreachable
    /// peers — PBFT's quorum logic tolerates the loss.
    fn send(&self, to: ReplicaId, msg: &PbftMsg<P>);

    /// Sends `msg` to every replica except the local one.
    fn broadcast(&self, msg: &PbftMsg<P>) {
        for to in 0..self.group_size() {
            if to != self.local_id() {
                self.send(to, msg);
            }
        }
    }

    /// Waits up to `timeout` for the next event.
    fn recv_timeout(&self, timeout: Duration) -> Option<NetEvent<P>>;

    /// Returns the next event if one is already queued, without
    /// blocking. The runner's drain loop uses this to pump every ready
    /// event per iteration and only falls back to [`recv_timeout`]
    /// when truly idle.
    ///
    /// [`recv_timeout`]: Transport::recv_timeout
    fn try_recv(&self) -> Option<NetEvent<P>> {
        self.recv_timeout(Duration::ZERO)
    }

    /// Releases transport resources (threads, sockets). Idempotent.
    fn shutdown(&self);
}

/// In-memory transport: a fully connected group over `mpsc` channels.
///
/// Build a group with [`LoopbackTransport::group`]. Every send encodes
/// the message to bytes and decodes it at the receiver, so codec bugs
/// surface in loopback tests, not just on real sockets.
pub struct LoopbackTransport<P> {
    id: ReplicaId,
    peers: Vec<Sender<NetEvent<P>>>,
    // Mutex because `recv_timeout` takes `&self` (the trait allows a
    // runner thread and a supervisor to share the transport).
    events: Mutex<Receiver<NetEvent<P>>>,
}

impl<P: PayloadCodec + Send + 'static> LoopbackTransport<P> {
    /// Creates a fully connected group of `n` transports.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn group(n: usize) -> Vec<LoopbackTransport<P>> {
        assert!(n > 0, "group must be non-empty");
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        receivers
            .into_iter()
            .enumerate()
            .map(|(id, rx)| LoopbackTransport {
                id,
                peers: senders.clone(),
                events: Mutex::new(rx),
            })
            .collect()
    }
}

impl<P: PayloadCodec + Send + 'static> Transport<P> for LoopbackTransport<P> {
    fn local_id(&self) -> ReplicaId {
        self.id
    }

    fn group_size(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, to: ReplicaId, msg: &PbftMsg<P>) {
        let Some(peer) = self.peers.get(to) else {
            return;
        };
        // Round-trip through the wire codec so loopback and TCP share
        // the same byte path.
        let body = encode_msg(msg);
        let msg = decode_msg(&body).expect("encoder output must decode");
        // A dropped receiver just means the peer shut down first.
        let _ = peer.send(NetEvent::Inbound { from: self.id, msg });
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

    fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use curb_consensus::{BytesPayload, Payload};

    fn p(b: &[u8]) -> BytesPayload {
        BytesPayload(b.to_vec())
    }

    #[test]
    fn loopback_unicast_and_broadcast() {
        let group = LoopbackTransport::<BytesPayload>::group(3);
        let payload = p(b"hello");
        let msg = PbftMsg::PrePrepare {
            view: 0,
            seq: 1,
            digest: payload.digest(),
            payload,
        };
        group[0].send(2, &msg);
        assert_eq!(
            group[2].recv_timeout(Duration::from_secs(1)),
            Some(NetEvent::Inbound {
                from: 0,
                msg: msg.clone()
            })
        );
        group[1].broadcast(&msg);
        assert!(group[0].recv_timeout(Duration::from_secs(1)).is_some());
        assert!(group[2].recv_timeout(Duration::from_secs(1)).is_some());
        // Broadcast never loops back to the sender.
        assert_eq!(group[1].recv_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn send_to_unknown_peer_is_ignored() {
        let group = LoopbackTransport::<BytesPayload>::group(2);
        let d = p(b"x").digest();
        group[0].send(
            7,
            &PbftMsg::Prepare {
                view: 0,
                seq: 1,
                digest: d,
            },
        );
        assert_eq!(group[1].recv_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn send_to_shut_down_peer_is_ignored() {
        let mut group = LoopbackTransport::<BytesPayload>::group(2);
        let d = p(b"x").digest();
        drop(group.remove(1));
        group[0].send(
            1,
            &PbftMsg::Commit {
                view: 0,
                seq: 1,
                digest: d,
            },
        );
    }
}
