//! Wire format for PBFT messages: a self-delimiting body codec plus
//! length-prefixed framing for stream transports.
//!
//! The body codec reads and writes through the node's one byte codec
//! (`curb_chain::codec`): big-endian integers, raw 32-byte digests,
//! u32-length-prefixed byte strings, and counts accepted only when the
//! bytes left can hold that many items. Every decoder is total —
//! truncated frames, oversized length prefixes and garbage bytes
//! produce a [`WireError`], never a panic.
//!
//! ```text
//! frame     := u32 body_len | body            (body_len <= max_frame)
//! body      := u8 tag | fields
//! tag 0     := PRE-PREPARE  view:u64 seq:u64 digest:[u8;32] payload
//! tag 1     := PREPARE      view:u64 seq:u64 digest:[u8;32]
//! tag 2     := COMMIT       view:u64 seq:u64 digest:[u8;32]
//! tag 3     := VIEW-CHANGE  new_view:u64 count:u32 (seq:u64 payload)*
//! tag 4     := NEW-VIEW     view:u64     count:u32 (seq:u64 payload)*
//! tag 5     := STATE-REQUEST  from_seq:u64 to_seq:u64
//! tag 6     := STATE-RESPONSE count:u32 (seq:u64 payload cert)*
//! tag 7     := CHECKPOINT     seq:u64 state_digest:[u8;32]
//! tag 8     := SNAPSHOT-RESPONSE checkpoint_seq:u64 cert
//!              count:u32 (seq:u64 payload cert)*
//! cert      := digest:[u8;32] count:u32 (voter:u64)*
//! payload   := u32 len | PayloadCodec bytes
//! ```
//!
//! Multiplexed transports (the node-level mux in [`crate::mux`]) wrap
//! each body in a *lane frame* so many consensus instances can share
//! one socket pair:
//!
//! ```text
//! lane_frame := lane:u64 | body                (lane != APP_LANE)
//!             | APP_LANE:u64 | app bytes       (opaque to this codec)
//! ```

use curb_chain::codec::{put_prefixed, ByteReader, CodecError};
use curb_consensus::{CommitCert, CommittedEntry, PayloadCodec, PbftMsg};
use std::io::{self, Write};
use std::sync::Arc;

/// Default cap on the body size of a single frame (16 MiB).
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Errors raised while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body ended mid-structure.
    Truncated,
    /// A tag, count or length field carries an implausible value.
    Corrupt(&'static str),
    /// The payload bytes were rejected by [`PayloadCodec::decode_payload`].
    BadPayload,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire message"),
            WireError::Corrupt(what) => write!(f, "corrupt wire field: {what}"),
            WireError::BadPayload => write!(f, "payload bytes failed to decode"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => WireError::Truncated,
            CodecError::Corrupt(what) => WireError::Corrupt(what),
        }
    }
}

const TAG_PRE_PREPARE: u8 = 0;
const TAG_PREPARE: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_VIEW_CHANGE: u8 = 3;
const TAG_NEW_VIEW: u8 = 4;
const TAG_STATE_REQUEST: u8 = 5;
const TAG_STATE_RESPONSE: u8 = 6;
const TAG_CHECKPOINT: u8 = 7;
const TAG_SNAPSHOT_RESPONSE: u8 = 8;

/// Cap on the `(seq, payload)` list length in view-change messages.
const MAX_CARRIED: u32 = 1 << 20;

/// Cap on the committed entries one `STATE-RESPONSE` frame may claim;
/// serving replicas chunk well below this (`max_state_chunk`), so any
/// larger claim is hostile.
pub const MAX_STATE_ENTRIES: u32 = 1 << 12;

/// Cap on the voter-list length of one commit certificate; real
/// certificates hold at most `n` voters and control-plane groups are
/// tiny, so any larger claim is hostile.
pub const MAX_CERT_VOTERS: u32 = 1 << 10;

/// Smallest `(seq, payload)` pair: the seq and an empty payload's length.
const CARRIED_MIN_LEN: usize = 8 + 4;

/// Smallest committed entry: seq, an empty payload and an empty
/// certificate (digest and voter count).
const ENTRY_MIN_LEN: usize = 8 + 4 + 32 + 4;

fn get_payload<P: PayloadCodec>(r: &mut ByteReader<'_>) -> Result<P, WireError> {
    P::decode_payload(r.len_prefixed()?).ok_or(WireError::BadPayload)
}

fn put_carried<P: PayloadCodec>(out: &mut Vec<u8>, carried: &[(u64, P)]) {
    out.extend_from_slice(&(carried.len() as u32).to_be_bytes());
    for (seq, payload) in carried {
        out.extend_from_slice(&seq.to_be_bytes());
        put_prefixed(out, |out| payload.encode_payload(out));
    }
}

fn get_carried<P: PayloadCodec>(r: &mut ByteReader<'_>) -> Result<Vec<(u64, P)>, WireError> {
    let count = r.count(CARRIED_MIN_LEN, "carried-payload count")?;
    if count > MAX_CARRIED as usize {
        return Err(WireError::Corrupt("carried-payload count"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let seq = r.u64()?;
        out.push((seq, get_payload(r)?));
    }
    Ok(out)
}

fn put_cert(out: &mut Vec<u8>, cert: &CommitCert) {
    out.extend_from_slice(&cert.digest.0);
    out.extend_from_slice(&(cert.voters.len() as u32).to_be_bytes());
    for &voter in &cert.voters {
        out.extend_from_slice(&(voter as u64).to_be_bytes());
    }
}

fn get_cert(r: &mut ByteReader<'_>) -> Result<CommitCert, WireError> {
    let digest = r.digest()?;
    let count = r.count(8, "cert voter count")?;
    if count > MAX_CERT_VOTERS as usize {
        return Err(WireError::Corrupt("cert voter count"));
    }
    let mut voters = Vec::with_capacity(count);
    for _ in 0..count {
        voters.push(r.u64()? as usize);
    }
    Ok(CommitCert { digest, voters })
}

fn put_entries<P: PayloadCodec>(out: &mut Vec<u8>, entries: &[CommittedEntry<P>]) {
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for entry in entries {
        out.extend_from_slice(&entry.seq.to_be_bytes());
        put_prefixed(out, |out| entry.payload.encode_payload(out));
        put_cert(out, &entry.cert);
    }
}

fn get_entries<P: PayloadCodec>(
    r: &mut ByteReader<'_>,
) -> Result<Vec<CommittedEntry<P>>, WireError> {
    let count = r.count(ENTRY_MIN_LEN, "state-entry count")?;
    if count > MAX_STATE_ENTRIES as usize {
        return Err(WireError::Corrupt("state-entry count"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let seq = r.u64()?;
        let payload = get_payload(r)?;
        let cert = get_cert(r)?;
        out.push(CommittedEntry { seq, payload, cert });
    }
    Ok(out)
}

/// Serialises `msg` into a frame body (no length prefix).
pub fn encode_msg<P: PayloadCodec>(msg: &PbftMsg<P>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_msg_into(msg, &mut out);
    out
}

/// Serialises `msg` into a frame body appended to `out`, reusing the
/// buffer's capacity. The hot transport path calls this with a scratch
/// buffer so steady-state sends allocate nothing for encoding.
pub fn encode_msg_into<P: PayloadCodec>(msg: &PbftMsg<P>, out: &mut Vec<u8>) {
    match msg {
        PbftMsg::PrePrepare {
            view,
            seq,
            digest,
            payload,
        } => {
            out.push(TAG_PRE_PREPARE);
            out.extend_from_slice(&view.to_be_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(&digest.0);
            put_prefixed(out, |out| payload.encode_payload(out));
        }
        PbftMsg::Prepare { view, seq, digest } => {
            out.push(TAG_PREPARE);
            out.extend_from_slice(&view.to_be_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(&digest.0);
        }
        PbftMsg::Commit { view, seq, digest } => {
            out.push(TAG_COMMIT);
            out.extend_from_slice(&view.to_be_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(&digest.0);
        }
        PbftMsg::ViewChange { new_view, prepared } => {
            out.push(TAG_VIEW_CHANGE);
            out.extend_from_slice(&new_view.to_be_bytes());
            put_carried(out, prepared);
        }
        PbftMsg::NewView { view, reproposals } => {
            out.push(TAG_NEW_VIEW);
            out.extend_from_slice(&view.to_be_bytes());
            put_carried(out, reproposals);
        }
        PbftMsg::StateRequest { from_seq, to_seq } => {
            out.push(TAG_STATE_REQUEST);
            out.extend_from_slice(&from_seq.to_be_bytes());
            out.extend_from_slice(&to_seq.to_be_bytes());
        }
        PbftMsg::StateResponse { entries } => {
            out.push(TAG_STATE_RESPONSE);
            put_entries(out, entries);
        }
        PbftMsg::Checkpoint { seq, state_digest } => {
            out.push(TAG_CHECKPOINT);
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(&state_digest.0);
        }
        PbftMsg::SnapshotResponse {
            checkpoint_seq,
            checkpoint,
            entries,
        } => {
            out.push(TAG_SNAPSHOT_RESPONSE);
            out.extend_from_slice(&checkpoint_seq.to_be_bytes());
            put_cert(out, checkpoint);
            put_entries(out, entries);
        }
    }
}

/// Rebuilds a message from a frame body.
///
/// # Errors
///
/// Returns a [`WireError`] on any malformed input; never panics.
pub fn decode_msg<P: PayloadCodec>(body: &[u8]) -> Result<PbftMsg<P>, WireError> {
    let mut r = ByteReader::new(body);
    let tag = r.u8()?;
    let msg = match tag {
        TAG_PRE_PREPARE => {
            let view = r.u64()?;
            let seq = r.u64()?;
            let digest = r.digest()?;
            let payload = get_payload(&mut r)?;
            PbftMsg::PrePrepare {
                view,
                seq,
                digest,
                payload,
            }
        }
        TAG_PREPARE => {
            let view = r.u64()?;
            let seq = r.u64()?;
            let digest = r.digest()?;
            PbftMsg::Prepare { view, seq, digest }
        }
        TAG_COMMIT => {
            let view = r.u64()?;
            let seq = r.u64()?;
            let digest = r.digest()?;
            PbftMsg::Commit { view, seq, digest }
        }
        TAG_VIEW_CHANGE => {
            let new_view = r.u64()?;
            let prepared = get_carried(&mut r)?;
            PbftMsg::ViewChange { new_view, prepared }
        }
        TAG_NEW_VIEW => {
            let view = r.u64()?;
            let reproposals = get_carried(&mut r)?;
            PbftMsg::NewView { view, reproposals }
        }
        TAG_STATE_REQUEST => {
            let from_seq = r.u64()?;
            let to_seq = r.u64()?;
            PbftMsg::StateRequest { from_seq, to_seq }
        }
        TAG_STATE_RESPONSE => {
            let entries = get_entries(&mut r)?;
            PbftMsg::StateResponse { entries }
        }
        TAG_CHECKPOINT => {
            let seq = r.u64()?;
            let state_digest = r.digest()?;
            PbftMsg::Checkpoint { seq, state_digest }
        }
        TAG_SNAPSHOT_RESPONSE => {
            let checkpoint_seq = r.u64()?;
            let checkpoint = get_cert(&mut r)?;
            let entries = get_entries(&mut r)?;
            PbftMsg::SnapshotResponse {
                checkpoint_seq,
                checkpoint,
                entries,
            }
        }
        _ => return Err(WireError::Corrupt("message tag")),
    };
    if !r.is_empty() {
        return Err(WireError::Corrupt("trailing bytes"));
    }
    Ok(msg)
}

/// The lane id reserved for opaque application frames on a multiplexed
/// connection. Cluster-level messages (AGREE, FINAL-AGREE, epoch
/// control) ride this lane; consensus instances use ordinary lane ids.
pub const APP_LANE: u64 = u64::MAX;

/// A frame body read off a multiplexed connection: either a consensus
/// message addressed to one lane, or opaque application bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum LaneFrame<P> {
    /// A PBFT message for the consensus instance registered on `lane`.
    Msg {
        /// The destination lane (consensus-instance id within the mux).
        lane: u64,
        /// The decoded message.
        msg: PbftMsg<P>,
    },
    /// Application bytes from the [`APP_LANE`], left undecoded: the
    /// mux hands them to whatever app-level codec sits above it. The
    /// bytes are a [`FrameRef`] view into the read buffer — on the
    /// zero-copy path they borrow the decoder block until the consumer
    /// drops them.
    App(FrameRef),
}

/// Serialises `msg` as a lane frame body appended to `out`:
/// `lane:u64 | body`.
///
/// # Panics
///
/// Panics if `lane == APP_LANE`, which is reserved for app bytes.
pub fn encode_lane_msg_into<P: PayloadCodec>(lane: u64, msg: &PbftMsg<P>, out: &mut Vec<u8>) {
    assert_ne!(lane, APP_LANE, "APP_LANE is reserved for app frames");
    out.extend_from_slice(&lane.to_be_bytes());
    encode_msg_into(msg, out);
}

/// Serialises opaque application bytes as a lane frame body appended
/// to `out`: `APP_LANE:u64 | bytes`.
pub fn encode_lane_app_into(bytes: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&APP_LANE.to_be_bytes());
    out.extend_from_slice(bytes);
}

/// Rebuilds a [`LaneFrame`] from a [`FrameRef`] without copying: a
/// consensus body is decoded in place (the decoded message owns its
/// fields, the ref drops immediately), and an [`APP_LANE`] frame is
/// returned as a sub-view of the same shared buffer — the app bytes
/// keep borrowing the decoder block instead of being `to_vec`'d.
///
/// Any lane id decodes — the mux drops frames for lanes nobody
/// registered (a stale epoch's traffic lands there and is counted), so
/// an unknown lane is not a wire error. The message body after the
/// lane prefix is validated exactly like [`decode_msg`].
///
/// # Errors
///
/// Returns a [`WireError`] on any malformed input; never panics.
pub fn decode_lane_frame_ref<P: PayloadCodec>(frame: &FrameRef) -> Result<LaneFrame<P>, WireError> {
    let body: &[u8] = frame;
    if body.len() < 8 {
        return Err(WireError::Truncated);
    }
    let lane = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
    if lane == APP_LANE {
        return Ok(LaneFrame::App(frame.slice(8, body.len() - 8)));
    }
    Ok(LaneFrame::Msg {
        lane,
        msg: decode_msg(&body[8..])?,
    })
}

/// Incremental decoder for length-prefixed frame streams.
///
/// `FrameDecoder` is push-based: callers feed it whatever chunk a
/// nonblocking socket happened to return — one byte, half a length
/// prefix, three frames and a tail — and the decoder invokes a sink
/// once per *complete* frame body, in order. This is the read path of
/// the poll-based reactor transport, where a single thread multiplexes
/// partial reads from many peers and must never block for the rest of
/// a frame.
///
/// Frame boundaries are tracked across calls: the decoder buffers an
/// incomplete frame (or a split length prefix) internally and resumes
/// exactly where the previous chunk stopped. When a chunk contains
/// complete frames and nothing is buffered, bodies are handed to the
/// sink as slices of the input — the common case copies nothing.
///
/// A length prefix above `max_frame` is hostile or corrupt: [`feed`]
/// returns [`WireError::Corrupt`] and the decoder **poisons itself** —
/// every later call fails too, because a stream that desynced once can
/// never be trusted to re-align. Callers drop the connection.
///
/// [`feed`]: FrameDecoder::feed
#[derive(Debug)]
pub struct FrameDecoder {
    max_frame: usize,
    /// Split length prefix carried across chunks (`header_len` valid).
    header: [u8; 4],
    header_len: usize,
    /// Partial body carried across chunks; `body_need` is the total
    /// body length announced by the prefix.
    body: Vec<u8>,
    body_need: Option<usize>,
    poisoned: bool,
}

impl FrameDecoder {
    /// Creates a decoder enforcing `max_frame` as the body-size cap.
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            max_frame,
            header: [0; 4],
            header_len: 0,
            body: Vec::new(),
            body_need: None,
            poisoned: false,
        }
    }

    /// Consumes `input` and calls `on_frame` once per completed frame
    /// body, in stream order. Partial frames are buffered until a
    /// later `feed` completes them.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Corrupt`] on a length prefix above the
    /// cap; the decoder is then poisoned and every subsequent call
    /// errors as well.
    pub fn feed(
        &mut self,
        mut input: &[u8],
        mut on_frame: impl FnMut(&[u8]),
    ) -> Result<(), WireError> {
        if self.poisoned {
            return Err(WireError::Corrupt("poisoned frame stream"));
        }
        while !input.is_empty() {
            match self.body_need {
                None => {
                    // Assemble the 4-byte length prefix (possibly
                    // split across chunks).
                    let take = (4 - self.header_len).min(input.len());
                    self.header[self.header_len..self.header_len + take]
                        .copy_from_slice(&input[..take]);
                    self.header_len += take;
                    input = &input[take..];
                    if self.header_len < 4 {
                        break; // prefix still incomplete
                    }
                    let len = u32::from_be_bytes(self.header) as usize;
                    self.header_len = 0;
                    if len > self.max_frame {
                        self.poisoned = true;
                        return Err(WireError::Corrupt("frame length"));
                    }
                    self.body_need = Some(len);
                    self.body.clear();
                    // Fast path: the whole body is already in `input`
                    // and nothing was buffered — no copy.
                    if input.len() >= len {
                        on_frame(&input[..len]);
                        input = &input[len..];
                        self.body_need = None;
                    } else {
                        self.body.reserve_exact(len);
                    }
                }
                Some(need) => {
                    let take = (need - self.body.len()).min(input.len());
                    self.body.extend_from_slice(&input[..take]);
                    input = &input[take..];
                    if self.body.len() == need {
                        on_frame(&self.body);
                        self.body.clear();
                        self.body_need = None;
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether the decoder sits exactly on a frame boundary (no
    /// partial prefix or body buffered). A connection that closes
    /// mid-frame ends in a non-aligned decoder.
    pub fn is_aligned(&self) -> bool {
        self.header_len == 0 && self.body_need.is_none() && !self.poisoned
    }
}

/// A cheaply cloneable view of one frame body inside a shared read
/// buffer.
///
/// [`SharedDecoder`] hands these out instead of copied `Vec<u8>`
/// bodies: the view holds an `Arc` on the block the bytes were read
/// into, so dispatch can outlive the decode loop without a per-frame
/// `to_vec`. The block is recycled once every `FrameRef` into it has
/// been dropped — holding a ref for a long time keeps (only) its block
/// alive, it never blocks the decoder, which rotates to a fresh block
/// instead.
///
/// Equality is byte-wise over the viewed range, so assertions against
/// plain slices behave like they did with owned bodies.
#[derive(Clone)]
pub struct FrameRef {
    buf: Arc<[u8]>,
    start: usize,
    len: usize,
}

impl FrameRef {
    /// Builds a standalone ref by copying `bytes` into a fresh
    /// allocation. This is the compatibility constructor for paths
    /// that still materialise owned bodies (blocking readers, tests).
    pub fn copied(bytes: &[u8]) -> FrameRef {
        FrameRef {
            buf: Arc::from(bytes),
            start: 0,
            len: bytes.len(),
        }
    }

    /// Returns a sub-view of this ref sharing the same buffer.
    ///
    /// # Panics
    ///
    /// Panics if `from + len` exceeds this ref's length.
    pub fn slice(&self, from: usize, len: usize) -> FrameRef {
        assert!(from + len <= self.len, "slice out of range");
        FrameRef {
            buf: Arc::clone(&self.buf),
            start: self.start + from,
            len,
        }
    }
}

impl std::ops::Deref for FrameRef {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl AsRef<[u8]> for FrameRef {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for FrameRef {
    fn from(bytes: Vec<u8>) -> FrameRef {
        let len = bytes.len();
        FrameRef {
            buf: Arc::from(bytes),
            start: 0,
            len,
        }
    }
}

impl std::fmt::Debug for FrameRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameRef")
            .field("len", &self.len)
            .field("bytes", &&self[..])
            .finish()
    }
}

impl PartialEq for FrameRef {
    fn eq(&self, other: &FrameRef) -> bool {
        self[..] == other[..]
    }
}

impl Eq for FrameRef {}

impl PartialEq<[u8]> for FrameRef {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for FrameRef {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for FrameRef {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

/// Default capacity of one [`SharedDecoder`] read block (256 KiB —
/// matches the write-side coalesce budget, so one block absorbs a full
/// inbound burst).
pub const DEFAULT_DECODE_BLOCK: usize = 256 << 10;

/// Zero-copy incremental decoder for length-prefixed frame streams.
///
/// Where [`FrameDecoder`] copies every buffered body into an owned
/// `Vec`, `SharedDecoder` owns the read buffer itself: the caller asks
/// for [`writable`] space, reads socket bytes straight into it, then
/// calls [`advance`], which parses complete frames **in place** and
/// emits [`FrameRef`] views into the block. On the steady-state path —
/// frames dispatched and their refs dropped before the next read — no
/// frame body byte is ever copied after the kernel wrote it.
///
/// The decoder never blocks on outstanding refs. If views into the
/// current block are still alive when more space is needed, it rotates
/// to a fresh block; only a partial frame tail spanning the rotation
/// is copied. [`copied_bytes`] counts exactly those rescue copies
/// (rotation tails, in-block compaction, oversize growth) — it is the
/// `net.decode_copy_bytes` telemetry source and reads 0 when the hot
/// path stays zero-copy. Bytes first read off the wire are never
/// counted.
///
/// Poisoning matches [`FrameDecoder`]: a length prefix above
/// `max_frame` fails the call and every call after it.
///
/// [`writable`]: SharedDecoder::writable
/// [`advance`]: SharedDecoder::advance
/// [`copied_bytes`]: SharedDecoder::copied_bytes
#[derive(Debug)]
pub struct SharedDecoder {
    max_frame: usize,
    block: Arc<[u8]>,
    /// Start of the unparsed region within `block`.
    consumed: usize,
    /// End of valid (read) data within `block`.
    pos: usize,
    copied: u64,
    poisoned: bool,
}

impl SharedDecoder {
    /// Creates a decoder enforcing `max_frame`, with the default block
    /// capacity.
    pub fn new(max_frame: usize) -> SharedDecoder {
        SharedDecoder::with_block_size(max_frame, DEFAULT_DECODE_BLOCK)
    }

    /// Creates a decoder with an explicit block capacity (tests use
    /// tiny blocks to exercise rotation and growth).
    pub fn with_block_size(max_frame: usize, block: usize) -> SharedDecoder {
        SharedDecoder {
            max_frame,
            block: Arc::from(vec![0u8; block.max(8)]),
            consumed: 0,
            pos: 0,
            copied: 0,
            poisoned: false,
        }
    }

    /// Returns the writable tail of the read block; the caller reads
    /// socket bytes into it and reports the count via [`advance`].
    /// Never returns an empty slice — if the block is exhausted or
    /// still referenced by live [`FrameRef`]s, the decoder rotates,
    /// compacts or grows first (copying at most one partial frame
    /// tail, which [`copied_bytes`] records).
    ///
    /// [`advance`]: SharedDecoder::advance
    /// [`copied_bytes`]: SharedDecoder::copied_bytes
    pub fn writable(&mut self) -> &mut [u8] {
        let cap = self.block.len();
        let tail = self.pos - self.consumed;
        if Arc::get_mut(&mut self.block).is_none() {
            // Live FrameRefs still view this block: rotate to a fresh
            // one. Steady state reaches here with `tail == 0` (every
            // complete frame already parsed), so nothing is copied —
            // the old block is freed when its last ref drops.
            let mut fresh = vec![0u8; cap];
            fresh[..tail].copy_from_slice(&self.block[self.consumed..self.pos]);
            self.copied += tail as u64;
            self.block = Arc::from(fresh);
            self.consumed = 0;
            self.pos = tail;
        } else if self.consumed == self.pos {
            self.consumed = 0;
            self.pos = 0;
        }
        // The block is uniquely owned now; make room if it is full.
        if self.pos == self.block.len() {
            let tail = self.pos - self.consumed;
            if self.consumed > 0 {
                // Partial frame stranded at the end of a full block:
                // slide it to the front.
                let consumed = self.consumed;
                let block = Arc::get_mut(&mut self.block).expect("uniquely owned");
                block.copy_within(consumed..consumed + tail, 0);
                self.copied += tail as u64;
                self.consumed = 0;
                self.pos = tail;
            } else {
                // One frame larger than the whole block: grow it.
                let cap = self.block.len();
                let grown = (cap * 2).clamp(cap + 8, (self.max_frame + 8).max(cap + 8));
                let mut fresh = vec![0u8; grown];
                fresh[..tail].copy_from_slice(&self.block[..self.pos]);
                self.copied += tail as u64;
                self.block = Arc::from(fresh);
            }
        }
        let pos = self.pos;
        let block = Arc::get_mut(&mut self.block).expect("uniquely owned after rotation");
        &mut block[pos..]
    }

    /// Records that `n` bytes were read into the slice returned by the
    /// immediately preceding [`writable`] call, then parses every
    /// complete frame now buffered, emitting each as a [`FrameRef`]
    /// in stream order.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Corrupt`] on a length prefix above the
    /// cap; the decoder is then poisoned and every subsequent call
    /// errors as well.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the writable space reported by
    /// [`writable`].
    ///
    /// [`writable`]: SharedDecoder::writable
    pub fn advance(
        &mut self,
        n: usize,
        mut on_frame: impl FnMut(FrameRef),
    ) -> Result<(), WireError> {
        if self.poisoned {
            return Err(WireError::Corrupt("poisoned frame stream"));
        }
        assert!(
            self.pos + n <= self.block.len(),
            "advance past writable space"
        );
        self.pos += n;
        loop {
            let avail = self.pos - self.consumed;
            if avail < 4 {
                break;
            }
            let hdr = &self.block[self.consumed..self.consumed + 4];
            let len = u32::from_be_bytes(hdr.try_into().expect("4 bytes")) as usize;
            if len > self.max_frame {
                self.poisoned = true;
                return Err(WireError::Corrupt("frame length"));
            }
            if avail < 4 + len {
                break; // frame incomplete; next read continues in place
            }
            on_frame(FrameRef {
                buf: Arc::clone(&self.block),
                start: self.consumed + 4,
                len,
            });
            self.consumed += 4 + len;
        }
        if self.consumed == self.pos {
            // Everything parsed: restart at the block head so `pos`
            // never creeps toward the end between bursts. (Indices
            // only — writers still go through `writable`, which
            // rotates if refs are alive.)
            self.consumed = 0;
            self.pos = 0;
        }
        Ok(())
    }

    /// Copies `input` into writable space and advances — the push-style
    /// convenience used by tests and oracles. The copy *into* the
    /// decoder stands in for a socket read and is not counted by
    /// [`copied_bytes`].
    ///
    /// # Errors
    ///
    /// Propagates [`advance`] errors (hostile length prefix, poisoned
    /// stream).
    ///
    /// [`advance`]: SharedDecoder::advance
    /// [`copied_bytes`]: SharedDecoder::copied_bytes
    pub fn feed(
        &mut self,
        mut input: &[u8],
        mut on_frame: impl FnMut(FrameRef),
    ) -> Result<(), WireError> {
        while !input.is_empty() {
            let dst = self.writable();
            let take = dst.len().min(input.len());
            dst[..take].copy_from_slice(&input[..take]);
            self.advance(take, &mut on_frame)?;
            input = &input[take..];
        }
        Ok(())
    }

    /// Total frame-stream bytes rescued by copy (rotation tails,
    /// compaction, oversize growth) since construction. 0 means every
    /// frame was delivered zero-copy out of the block it was read
    /// into.
    pub fn copied_bytes(&self) -> u64 {
        self.copied
    }

    /// Whether the decoder sits exactly on a frame boundary (no
    /// partial prefix or body buffered). A connection that closes
    /// mid-frame ends in a non-aligned decoder.
    pub fn is_aligned(&self) -> bool {
        self.consumed == self.pos && !self.poisoned
    }
}

/// Appends `body` to `buf` as a length-prefixed frame with no cap
/// check, for tests that hand-build a byte stream.
#[cfg(test)]
pub(crate) fn append_frame(buf: &mut Vec<u8>, body: &[u8]) {
    buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
    buf.extend_from_slice(body);
}

/// Writes one length-prefixed frame to a stream.
///
/// # Errors
///
/// Propagates I/O errors; rejects bodies larger than `max_frame` with
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, body: &[u8], max_frame: usize) -> io::Result<()> {
    if body.len() > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body {} exceeds cap {max_frame}", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use curb_consensus::{BytesPayload, Payload};
    use curb_crypto::sha256::Digest;

    fn p(b: &[u8]) -> BytesPayload {
        BytesPayload(b.to_vec())
    }

    fn every_variant() -> Vec<PbftMsg<BytesPayload>> {
        let payload = p(b"flow update");
        let d = payload.digest();
        vec![
            PbftMsg::PrePrepare {
                view: 3,
                seq: 17,
                digest: d,
                payload: payload.clone(),
            },
            PbftMsg::PrePrepare {
                view: 0,
                seq: 1,
                digest: p(b"").digest(),
                payload: p(b""),
            },
            PbftMsg::Prepare {
                view: u64::MAX,
                seq: 0,
                digest: d,
            },
            PbftMsg::Commit {
                view: 9,
                seq: u64::MAX,
                digest: Digest([0xAB; 32]),
            },
            PbftMsg::ViewChange {
                new_view: 2,
                prepared: vec![],
            },
            PbftMsg::ViewChange {
                new_view: 5,
                prepared: vec![(1, p(b"a")), (9, p(b"bb")), (u64::MAX, p(b""))],
            },
            PbftMsg::NewView {
                view: 7,
                reproposals: vec![(4, payload)],
            },
            PbftMsg::NewView {
                view: 1,
                reproposals: vec![],
            },
            PbftMsg::StateRequest {
                from_seq: 1,
                to_seq: u64::MAX,
            },
            PbftMsg::StateResponse { entries: vec![] },
            PbftMsg::StateResponse {
                entries: vec![
                    CommittedEntry {
                        seq: 1,
                        payload: p(b"committed"),
                        cert: CommitCert {
                            digest: p(b"committed").digest(),
                            voters: vec![0, 1, 3],
                        },
                    },
                    CommittedEntry {
                        seq: u64::MAX,
                        payload: p(b""),
                        cert: CommitCert {
                            digest: Digest([0x5A; 32]),
                            voters: vec![],
                        },
                    },
                ],
            },
            PbftMsg::Checkpoint {
                seq: 64,
                state_digest: Digest([0xC4; 32]),
            },
            PbftMsg::SnapshotResponse {
                checkpoint_seq: 128,
                checkpoint: CommitCert {
                    digest: Digest([0x11; 32]),
                    voters: vec![0, 2, 3],
                },
                entries: vec![],
            },
            PbftMsg::SnapshotResponse {
                checkpoint_seq: u64::MAX - 1,
                checkpoint: CommitCert {
                    digest: Digest([0x22; 32]),
                    voters: vec![1, 2, 3, 4],
                },
                entries: vec![CommittedEntry {
                    seq: u64::MAX,
                    payload: p(b"delta"),
                    cert: CommitCert {
                        digest: p(b"delta").digest(),
                        voters: vec![0, 1, 2],
                    },
                }],
            },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for msg in every_variant() {
            let body = encode_msg(&msg);
            let back: PbftMsg<BytesPayload> = decode_msg(&body).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn truncation_always_errors_never_panics() {
        for msg in every_variant() {
            let body = encode_msg(&msg);
            for cut in 0..body.len() {
                assert!(
                    decode_msg::<BytesPayload>(&body[..cut]).is_err(),
                    "cut at {cut} of {}",
                    body.len()
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        for msg in every_variant() {
            let mut body = encode_msg(&msg);
            body.push(0);
            assert_eq!(
                decode_msg::<BytesPayload>(&body),
                Err(WireError::Corrupt("trailing bytes"))
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        for tag in 9u8..=255 {
            assert_eq!(
                decode_msg::<BytesPayload>(&[tag]),
                Err(WireError::Corrupt("message tag"))
            );
        }
    }

    #[test]
    fn hostile_carried_count_rejected_without_allocation() {
        // VIEW-CHANGE claiming 2^32-1 carried payloads in a tiny body.
        let mut body = vec![TAG_VIEW_CHANGE];
        body.extend_from_slice(&1u64.to_be_bytes());
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_msg::<BytesPayload>(&body),
            Err(WireError::Corrupt("carried-payload count"))
        );
    }

    #[test]
    fn hostile_state_entry_count_rejected_without_allocation() {
        // STATE-RESPONSE claiming 2^32-1 committed entries in a tiny body.
        let mut body = vec![TAG_STATE_RESPONSE];
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_msg::<BytesPayload>(&body),
            Err(WireError::Corrupt("state-entry count"))
        );
        // One past the cap is also rejected.
        let mut body = vec![TAG_STATE_RESPONSE];
        body.extend_from_slice(&(MAX_STATE_ENTRIES + 1).to_be_bytes());
        assert_eq!(
            decode_msg::<BytesPayload>(&body),
            Err(WireError::Corrupt("state-entry count"))
        );
    }

    #[test]
    fn hostile_cert_voter_count_rejected_without_allocation() {
        // A single entry whose certificate claims 2^32-1 voters.
        let mut body = vec![TAG_STATE_RESPONSE];
        body.extend_from_slice(&1u32.to_be_bytes()); // one entry
        body.extend_from_slice(&1u64.to_be_bytes()); // seq
        body.extend_from_slice(&0u32.to_be_bytes()); // empty payload
        body.extend_from_slice(&[0u8; 32]); // cert digest
        body.extend_from_slice(&u32::MAX.to_be_bytes()); // voter count
        assert_eq!(
            decode_msg::<BytesPayload>(&body),
            Err(WireError::Corrupt("cert voter count"))
        );
    }

    #[test]
    fn hostile_snapshot_counts_rejected_without_allocation() {
        // SNAPSHOT-RESPONSE whose checkpoint certificate claims 2^32-1
        // voters in a tiny body.
        let mut body = vec![TAG_SNAPSHOT_RESPONSE];
        body.extend_from_slice(&64u64.to_be_bytes()); // checkpoint_seq
        body.extend_from_slice(&[0u8; 32]); // cert digest
        body.extend_from_slice(&u32::MAX.to_be_bytes()); // voter count
        assert_eq!(
            decode_msg::<BytesPayload>(&body),
            Err(WireError::Corrupt("cert voter count"))
        );
        // A sound checkpoint cert followed by a hostile delta count.
        let mut body = vec![TAG_SNAPSHOT_RESPONSE];
        body.extend_from_slice(&64u64.to_be_bytes());
        body.extend_from_slice(&[0u8; 32]);
        body.extend_from_slice(&0u32.to_be_bytes()); // no voters
        body.extend_from_slice(&(MAX_STATE_ENTRIES + 1).to_be_bytes());
        assert_eq!(
            decode_msg::<BytesPayload>(&body),
            Err(WireError::Corrupt("state-entry count"))
        );
    }

    #[test]
    fn oversized_body_refused_on_write() {
        let err = write_frame(&mut Vec::new(), &[0u8; 64], 63).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// Feeds `stream` to a decoder in `chunk`-byte pieces and returns
    /// the decoded frame bodies.
    fn decode_chunked(stream: &[u8], chunk: usize, max_frame: usize) -> Vec<Vec<u8>> {
        let mut decoder = FrameDecoder::new(max_frame);
        let mut frames = Vec::new();
        for piece in stream.chunks(chunk.max(1)) {
            decoder
                .feed(piece, |body| frames.push(body.to_vec()))
                .expect("valid stream");
        }
        assert!(decoder.is_aligned());
        frames
    }

    #[test]
    fn incremental_decoder_handles_any_chunking() {
        let bodies: Vec<Vec<u8>> = vec![
            encode_msg(&every_variant()[0]),
            Vec::new(), // empty frame
            encode_msg(&every_variant()[5]),
            vec![0xEE; 300],
        ];
        let mut stream = Vec::new();
        for body in &bodies {
            write_frame(&mut stream, body, DEFAULT_MAX_FRAME).unwrap();
        }
        for chunk in [1, 2, 3, 4, 5, 7, 16, 301, stream.len()] {
            assert_eq!(
                decode_chunked(&stream, chunk, DEFAULT_MAX_FRAME),
                bodies,
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn incremental_decoder_split_across_length_prefix() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"abc", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut stream, b"defg", DEFAULT_MAX_FRAME).unwrap();
        // Cut inside the second frame's length prefix (byte 7 + 2).
        let cut = 4 + 3 + 2;
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut frames = Vec::new();
        decoder
            .feed(&stream[..cut], |b| frames.push(b.to_vec()))
            .unwrap();
        assert_eq!(frames, vec![b"abc".to_vec()]);
        assert!(!decoder.is_aligned(), "mid-prefix is not a boundary");
        decoder
            .feed(&stream[cut..], |b| frames.push(b.to_vec()))
            .unwrap();
        assert_eq!(frames, vec![b"abc".to_vec(), b"defg".to_vec()]);
        assert!(decoder.is_aligned());
    }

    #[test]
    fn incremental_decoder_poisons_on_hostile_length() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"fine", 64).unwrap();
        stream.extend_from_slice(&(65u32).to_be_bytes()); // over cap
        stream.extend_from_slice(&[0u8; 65]);
        let mut decoder = FrameDecoder::new(64);
        let mut frames = Vec::new();
        let err = decoder
            .feed(&stream, |b| frames.push(b.to_vec()))
            .unwrap_err();
        assert_eq!(err, WireError::Corrupt("frame length"));
        assert_eq!(frames, vec![b"fine".to_vec()], "good prefix still decoded");
        // Once poisoned, always poisoned — even for valid input.
        let mut good = Vec::new();
        write_frame(&mut good, b"later", 64).unwrap();
        assert!(decoder.feed(&good, |_| {}).is_err());
        assert!(!decoder.is_aligned());
    }

    #[test]
    fn lane_frame_roundtrip_every_variant() {
        for msg in every_variant() {
            for lane in [0u64, 1, 42, u64::MAX - 1] {
                let mut body = Vec::new();
                encode_lane_msg_into(lane, &msg, &mut body);
                assert_eq!(
                    decode_lane_frame_ref::<BytesPayload>(&FrameRef::copied(&body)).unwrap(),
                    LaneFrame::Msg {
                        lane,
                        msg: msg.clone()
                    }
                );
            }
        }
    }

    #[test]
    fn lane_frame_app_roundtrip() {
        for bytes in [&b""[..], b"x", &[0xFFu8; 300]] {
            let mut body = Vec::new();
            encode_lane_app_into(bytes, &mut body);
            // The app bytes come back as a sub-slice of the frame.
            assert_eq!(
                decode_lane_frame_ref::<BytesPayload>(&FrameRef::copied(&body)).unwrap(),
                LaneFrame::App(FrameRef::copied(bytes))
            );
        }
    }

    #[test]
    fn lane_frame_truncated_prefix_rejected() {
        for cut in 0..8 {
            assert_eq!(
                decode_lane_frame_ref::<BytesPayload>(&FrameRef::copied(&vec![0u8; cut])),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "APP_LANE is reserved")]
    fn lane_frame_rejects_reserved_lane_on_encode() {
        let msg = every_variant().remove(0);
        encode_lane_msg_into(APP_LANE, &msg, &mut Vec::new());
    }

    #[test]
    fn lane_frame_bad_body_still_errors() {
        // A valid lane prefix followed by garbage must fail like
        // decode_msg, not panic.
        let mut body = 3u64.to_be_bytes().to_vec();
        body.push(99); // unknown tag
        assert_eq!(
            decode_lane_frame_ref::<BytesPayload>(&FrameRef::copied(&body)),
            Err(WireError::Corrupt("message tag"))
        );
    }

    #[test]
    fn shared_decoder_matches_copying_decoder() {
        let bodies: Vec<Vec<u8>> = vec![
            encode_msg(&every_variant()[0]),
            Vec::new(),
            encode_msg(&every_variant()[5]),
            vec![0xEE; 300],
        ];
        let mut stream = Vec::new();
        for body in &bodies {
            write_frame(&mut stream, body, DEFAULT_MAX_FRAME).unwrap();
        }
        for chunk in [1, 2, 3, 5, 7, 16, 301, stream.len()] {
            let mut decoder = SharedDecoder::with_block_size(DEFAULT_MAX_FRAME, 64);
            let mut frames: Vec<Vec<u8>> = Vec::new();
            for piece in stream.chunks(chunk) {
                decoder
                    .feed(piece, |frame| frames.push(frame.to_vec()))
                    .expect("valid stream");
            }
            assert_eq!(frames, bodies, "chunk size {chunk}");
            assert!(decoder.is_aligned());
        }
    }

    #[test]
    fn shared_decoder_steady_state_copies_nothing() {
        // Refs dropped before the next read + bursts that fit the
        // block: the whole stream decodes without a single rescue
        // copy, whatever the read chunking.
        let mut stream = Vec::new();
        for i in 0..64 {
            write_frame(&mut stream, &[i as u8; 100], DEFAULT_MAX_FRAME).unwrap();
        }
        for chunk in [1, 3, 104, 200, stream.len()] {
            let mut decoder = SharedDecoder::new(DEFAULT_MAX_FRAME);
            let mut n = 0;
            for piece in stream.chunks(chunk) {
                decoder.feed(piece, |_| n += 1).expect("valid stream");
            }
            assert_eq!(n, 64);
            assert_eq!(decoder.copied_bytes(), 0, "chunk size {chunk}");
        }
    }

    #[test]
    fn shared_decoder_rotates_when_refs_are_held() {
        // Holding every FrameRef forces block rotation; the views must
        // stay intact (backed by retired blocks) and, because each
        // burst ends on a frame boundary, rotation still copies zero
        // bytes.
        let mut decoder = SharedDecoder::with_block_size(DEFAULT_MAX_FRAME, 32);
        let mut held: Vec<FrameRef> = Vec::new();
        let mut stream = Vec::new();
        let bodies: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 20]).collect();
        for body in &bodies {
            stream.clear();
            write_frame(&mut stream, body, DEFAULT_MAX_FRAME).unwrap();
            decoder
                .feed(&stream, |frame| held.push(frame))
                .expect("valid stream");
        }
        assert_eq!(held.len(), bodies.len());
        for (frame, body) in held.iter().zip(&bodies) {
            assert_eq!(frame, body);
        }
        assert_eq!(decoder.copied_bytes(), 0);
    }

    #[test]
    fn shared_decoder_counts_rescue_copies_for_split_tails() {
        // A frame split across a rotation (ref held mid-frame) must
        // still decode correctly and charge exactly the carried tail
        // to the copy counter.
        let mut decoder = SharedDecoder::with_block_size(DEFAULT_MAX_FRAME, 64);
        let mut stream = Vec::new();
        write_frame(&mut stream, &[0xAA; 30], DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut stream, &[0xBB; 40], DEFAULT_MAX_FRAME).unwrap();
        let mut held: Vec<FrameRef> = Vec::new();
        // First feed ends mid-second-frame; the first frame's ref is
        // held so the follow-up bytes force a rotation with a tail.
        let cut = 4 + 30 + 4 + 10;
        decoder
            .feed(&stream[..cut], |f| held.push(f))
            .expect("valid");
        decoder
            .feed(&stream[cut..], |f| held.push(f))
            .expect("valid");
        assert_eq!(held.len(), 2);
        assert_eq!(held[0], &[0xAA; 30][..]);
        assert_eq!(held[1], &[0xBB; 40][..]);
        assert!(
            decoder.copied_bytes() > 0 && decoder.copied_bytes() <= 44,
            "only the split tail is rescued, got {}",
            decoder.copied_bytes()
        );
    }

    #[test]
    fn shared_decoder_grows_for_frames_larger_than_the_block() {
        let body = vec![0x5A; 500];
        let mut stream = Vec::new();
        write_frame(&mut stream, &body, DEFAULT_MAX_FRAME).unwrap();
        let mut decoder = SharedDecoder::with_block_size(1 << 10, 32);
        let mut frames = Vec::new();
        for piece in stream.chunks(9) {
            decoder
                .feed(piece, |f| frames.push(f.to_vec()))
                .expect("valid stream");
        }
        assert_eq!(frames, vec![body]);
        assert!(decoder.is_aligned());
    }

    #[test]
    fn shared_decoder_poisons_on_hostile_length() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"fine", 64).unwrap();
        stream.extend_from_slice(&65u32.to_be_bytes());
        stream.extend_from_slice(&[0u8; 65]);
        let mut decoder = SharedDecoder::with_block_size(64, 256);
        let mut frames = Vec::new();
        let err = decoder
            .feed(&stream, |f| frames.push(f.to_vec()))
            .unwrap_err();
        assert_eq!(err, WireError::Corrupt("frame length"));
        assert_eq!(frames, vec![b"fine".to_vec()], "good prefix still decoded");
        let mut good = Vec::new();
        write_frame(&mut good, b"later", 64).unwrap();
        assert!(decoder.feed(&good, |_| {}).is_err());
        assert!(!decoder.is_aligned());
    }

    #[test]
    fn frame_ref_views_compare_and_slice() {
        let r = FrameRef::copied(b"hello world");
        assert_eq!(r, &b"hello world"[..]);
        assert_eq!(r.slice(6, 5), &b"world"[..]);
        assert_eq!(&r[..5], b"hello");
        let from_vec: FrameRef = b"hello world".to_vec().into();
        assert_eq!(r, from_vec);
    }

    #[test]
    fn garbage_bytes_never_panic() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..256usize {
            let body: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = decode_msg::<BytesPayload>(&body); // must not panic
        }
    }
}
