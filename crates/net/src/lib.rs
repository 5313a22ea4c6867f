//! Networked runtime for the Curb control plane.
//!
//! Everything else in the reproduction runs inside the single-process
//! discrete-event simulator; this crate is the missing substrate for
//! running the same sans-io consensus code over **real sockets**:
//!
//! * [`frame`] — the wire codec: a tagged body format for
//!   [`PbftMsg`](curb_consensus::PbftMsg) (reusing the primitive
//!   layout of `curb_chain::codec`) plus u32-length-prefixed framing
//!   with an explicit max-frame-size and total, panic-free decoding;
//! * [`Transport`] — the channel abstraction, with one socket engine
//!   under it: a single epoll event loop per node that multiplexes
//!   every peer socket nonblocking (zero-copy frame decoding, vectored
//!   writes, version/peer-id [handshake](encode_hello), capped
//!   exponential backoff reconnect). [`MuxTransport`] shares that loop
//!   between all of a node's consensus lanes, [`ReactorTransport`] is
//!   its one-lane case for a single flat group, and
//!   [`LoopbackTransport`] is the in-memory, deterministic stand-in
//!   that still round-trips every message through the codec;
//! * [`NetRunner`] — the batch-first event loop that owns a
//!   [`Replica`](curb_consensus::Replica) over
//!   [`Batch`](curb_consensus::Batch)ed payloads: it coalesces queued
//!   client proposals into batches (one consensus round amortises over
//!   up to [`RunnerConfig::max_batch`] payloads), pipelines multiple
//!   instances, drains all ready transport events per iteration, and
//!   unfolds committed batches back into per-payload `(seq, index)`
//!   [`Delivery`] records on a channel. It also runs the **catch-up
//!   loop**: a restarted replica that detects a committed-prefix gap
//!   requests verified, certificate-backed state chunks from its
//!   peers one at a time (timeout + rotate on an unhelpful or lying
//!   peer) until the hole closes and delivery resumes.
//!
//! The same machinery is deliberately payload-generic: any type
//! implementing [`Payload`](curb_consensus::Payload) +
//! [`PayloadCodec`](curb_consensus::PayloadCodec) — bytes in tests,
//! transaction batches in a full controller — runs over any
//! transport unchanged, so `curb-core` controllers can reuse it as-is.
//!
//! The socket engine is raw epoll (`sys.rs` declares the libc externs
//! itself), so the crate builds on Linux only.
//!
//! # Example
//!
//! A four-replica cluster over in-memory transports:
//!
//! ```rust
//! use curb_consensus::{Batch, BytesPayload, Replica};
//! use curb_net::{LoopbackTransport, NetRunner, RunnerConfig};
//! use std::time::Duration;
//!
//! let handles: Vec<_> = LoopbackTransport::<Batch<BytesPayload>>::group(4)
//!     .into_iter()
//!     .enumerate()
//!     .map(|(id, t)| NetRunner::spawn(Replica::new(id, 4), t, RunnerConfig::default()))
//!     .collect();
//! handles[0].propose(BytesPayload(b"flow update".to_vec()));
//! for h in &handles {
//!     let d = h.decisions.recv_timeout(Duration::from_secs(5)).unwrap();
//!     assert_eq!((d.seq, d.index), (1, 0));
//!     assert_eq!(d.payload, BytesPayload(b"flow update".to_vec()));
//! }
//! # for h in handles { h.join(); }
//! ```

// Everything except the epoll syscall shim is safe code; `sys` is the
// single, audited exception (raw fds + a handful of libc externs).
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "curb-net drives its sockets through raw epoll (src/sys.rs) and builds on Linux only"
);

mod fault;
pub mod frame;
mod handshake;
mod mux;
mod reactor;
mod runner;
#[allow(unsafe_code)]
mod sys;
mod transport;

pub use fault::LinkFaults;
pub use frame::{
    decode_lane_frame_ref, decode_msg, encode_lane_app_into, encode_lane_msg_into, encode_msg,
    encode_msg_into, write_frame, FrameDecoder, FrameRef, LaneFrame, SharedDecoder, WireError,
    APP_LANE, DEFAULT_DECODE_BLOCK, DEFAULT_MAX_FRAME, MAX_CERT_VOTERS, MAX_STATE_ENTRIES,
};
pub use handshake::{encode_hello, validate_hello, HANDSHAKE_LEN, HANDSHAKE_MAGIC};
pub use mux::{AppEvent, Lane, MuxTransport, NodeId, ReactorTransport};
pub use reactor::ReactorConfig;
pub use runner::{Delivery, NetRunner, RunnerConfig, RunnerHandle, RunnerStats};
pub use transport::{LoopbackTransport, NetEvent, Transport};
