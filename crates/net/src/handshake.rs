//! The connection prelude every `curb-net` socket starts with.
//!
//! Connections are unidirectional (the dialer writes, the acceptor
//! reads), and the first 32 bytes a dialer sends are
//! `"CURBNET\x02" | peer_id:u64 | group_size:u64 | group_id:u64`, all
//! big-endian. A magic or version mismatch, an out-of-range id, a
//! wrong group size or a different group id closes the connection
//! before any frame is read. The node-level
//! [`MuxTransport`](crate::MuxTransport), and
//! [`ReactorTransport`](crate::ReactorTransport) as its one-lane case,
//! speak it through the event loop's one dial and accept path.

use curb_consensus::ReplicaId;

/// Protocol magic plus a version byte; bump the last byte on any wire
/// format change. Version 2 extended the hello with a `group_id`, so a
/// v1 peer is rejected at the handshake instead of desyncing later.
pub const HANDSHAKE_MAGIC: &[u8; 8] = b"CURBNET\x02";

/// Length of the dialer→acceptor handshake in bytes.
pub const HANDSHAKE_LEN: usize = 32;

/// Builds the 32-byte dialer→acceptor handshake:
/// `magic+version | peer_id:u64 | group_size:u64 | group_id:u64`.
/// `group_id` names the consensus instance (or, for the mux, the node
/// backbone) this connection belongs to; peers on a different instance
/// are rejected before any frame is exchanged.
pub fn encode_hello(local: ReplicaId, group_size: usize, group_id: u64) -> [u8; HANDSHAKE_LEN] {
    let mut hello = [0u8; HANDSHAKE_LEN];
    hello[..8].copy_from_slice(HANDSHAKE_MAGIC);
    hello[8..16].copy_from_slice(&(local as u64).to_be_bytes());
    hello[16..24].copy_from_slice(&(group_size as u64).to_be_bytes());
    hello[24..32].copy_from_slice(&group_id.to_be_bytes());
    hello
}

/// Validates a received handshake against the local `group_size` and
/// `group_id` and returns the dialer's replica id, or `None` on a
/// magic/version mismatch, an out-of-range id, a wrong group size or a
/// different group id — the acceptor closes the connection before
/// reading any frame.
pub fn validate_hello(
    hello: &[u8; HANDSHAKE_LEN],
    group_size: usize,
    group_id: u64,
) -> Option<ReplicaId> {
    if &hello[..8] != HANDSHAKE_MAGIC {
        return None;
    }
    let from = u64::from_be_bytes(hello[8..16].try_into().expect("8 bytes")) as usize;
    let peer_n = u64::from_be_bytes(hello[16..24].try_into().expect("8 bytes")) as usize;
    let peer_group = u64::from_be_bytes(hello[24..32].try_into().expect("8 bytes"));
    (from < group_size && peer_n == group_size && peer_group == group_id).then_some(from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_1_hello_is_rejected() {
        let mut hello = encode_hello(0, 2, 0);
        assert_eq!(validate_hello(&hello, 2, 0), Some(0));
        // "CURBNET\x01": the 24-byte v1 prelude padded to today's
        // length, as a stale peer's first bytes would read.
        hello[7] = 1;
        assert_eq!(validate_hello(&hello, 2, 0), None);
    }
}
