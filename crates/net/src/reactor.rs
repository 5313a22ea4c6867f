//! The socket engine: one epoll event loop per backbone, thousands of
//! peers.
//!
//! Two OS threads per peer (a blocking reader and a writer) would cap
//! a replica at a few hundred connections and make per-message cost
//! dominated by wakeups and context switches. The [`Reactor`] instead
//! runs the wire protocol — length-prefixed frames, the 32-byte
//! handshake ([`crate::encode_hello`]), one unidirectional connection
//! per ordered node pair (the dialer writes, the acceptor reads, so
//! simultaneous connects need no tie-break) — on **one** event-loop
//! thread that owns every socket in nonblocking mode behind a raw
//! epoll shim ([`crate::sys`]).
//!
//! * **One loop, not a pool.** A Curb controller is an edge server
//!   with a small CPU budget, and the protocol's scalability comes
//!   from grouping, not threads. No measurement has shown a second
//!   loop paying for itself, so the listener, every dial and every
//!   inbound peer share one epoll instance, wake pipe, timer wheel,
//!   dirty list and connection slab.
//! * **Zero-copy reads** go through the
//!   [`SharedDecoder`](crate::frame::SharedDecoder): socket bytes land
//!   directly in an `Arc`-shared block and complete frames are handed
//!   to the sink as [`FrameRef`] views — no per-frame `to_vec`. The
//!   `net.decode_copy_bytes` counter tallies the rare rescue copies
//!   (partial frame tails across block rotations) and reads 0 on the
//!   steady-state path.
//! * **Vectored writes**: per-peer outbound rings hold encoded frames
//!   as `Arc<[u8]>`; a flush moves them into the in-flight burst and
//!   submits header/body slices to one `writev(2)`
//!   ([`crate::sys::writev_fd`]) — coalesced bursts are never
//!   re-concatenated into a contiguous buffer. Level-triggered
//!   `EPOLLOUT` is armed only while a peer has pending bytes.
//! * **Backpressure** is a per-peer byte watermark
//!   ([`ReactorConfig::high_watermark`]): a ring pushed past the high
//!   mark is emptied, the drops are counted
//!   (`net.backpressure_drops`), and the peer's connection is torn
//!   down and re-dialed.
//! * **Reconnects** follow a capped exponential backoff, as timer
//!   events on a coarse timing wheel that also bounds the
//!   `epoll_wait` timeout.
//!
//! The reactor knows frames, not messages: the node-level mux
//! ([`crate::MuxTransport`], and [`crate::ReactorTransport`] as its
//! one-lane case) plugs a [`FrameSink`] in that routes lane frames, so
//! one node hosting many consensus groups runs one loop.
//!
//! Observability: `net.poll_wait_ns` (time blocked in `epoll_wait`),
//! `net.events_per_wake`, `net.backpressure_drops`, `net.conns`
//! (sockets the loop owns), `net.decode_copy_bytes`, `net.write_ns`,
//! `net.read_ns`, `net.queue_depth` and `net.reconnects`.

use crate::fault::LinkFaults;
use crate::frame::{FrameRef, SharedDecoder, DEFAULT_MAX_FRAME};
use crate::handshake::{encode_hello, validate_hello, HANDSHAKE_LEN};
use crate::sys::{self, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use curb_consensus::ReplicaId;
use curb_telemetry::{Counter, Gauge, HistogramHandle, Registry};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for the socket engine under [`crate::MuxTransport`]
/// and [`crate::ReactorTransport`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Maximum frame body size accepted or sent.
    pub max_frame: usize,
    /// First reconnect delay after a failed dial or dropped connection.
    pub backoff_base: Duration,
    /// Cap on the exponential reconnect delay.
    pub backoff_max: Duration,
    /// How long a nonblocking connect may sit half-open before the
    /// attempt is abandoned and rescheduled with backoff.
    pub dial_timeout: Duration,
    /// Per-peer outbound ring watermark in bytes. Pushing a ring past
    /// this mark empties it, counts the drops and tears the peer's
    /// connection down for a fresh reconnect.
    pub high_watermark: usize,
    /// Write coalescing limit: pending frames are drained into one
    /// vectored burst of at most this many bytes per write wakeup.
    pub coalesce_bytes: usize,
    /// Timing-wheel slot granularity; timer deadlines are exact, the
    /// granularity only bounds how early the wheel re-checks them.
    pub tick: Duration,
    /// Instance id stamped into the handshake; peers carrying a
    /// different id are rejected. The cluster runtime sets its
    /// protocol seed here; 0 suits a single group.
    pub group_id: u64,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_frame: DEFAULT_MAX_FRAME,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(2),
            dial_timeout: Duration::from_millis(500),
            high_watermark: 8 << 20,
            coalesce_bytes: 256 << 10,
            tick: Duration::from_millis(4),
            group_id: 0,
        }
    }
}

/// Number of slots in the timing wheel. With the default 4 ms tick the
/// wheel spans ~2 s — one full lap covers the default `backoff_max`;
/// longer deadlines park in the furthest slot and re-insert on expiry.
const WHEEL_SLOTS: usize = 512;

/// What a timer firing means to the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// Attempt a fresh dial to `peer` (scheduled with backoff).
    Redial { peer: usize },
    /// Abandon `peer`'s half-open connect if attempt `generation` is
    /// still the current one.
    DialDeadline { peer: usize, generation: u64 },
}

struct Timer {
    deadline: Instant,
    kind: TimerKind,
}

/// A coarse single-level timing wheel. Deadlines are kept exact inside
/// each slot; the wheel only decides *when to look*, so a timer beyond
/// the wheel's span is parked in the furthest slot and re-inserted
/// when the cursor reaches it.
struct TimerWheel {
    slots: Vec<Vec<Timer>>,
    granularity: Duration,
    /// Start time of the slot under the cursor.
    cursor_time: Instant,
    cursor: usize,
    len: usize,
}

impl TimerWheel {
    fn new(granularity: Duration, now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            granularity: granularity.max(Duration::from_millis(1)),
            cursor_time: now,
            cursor: 0,
            len: 0,
        }
    }

    fn schedule(&mut self, deadline: Instant, kind: TimerKind) {
        let offset = (deadline
            .saturating_duration_since(self.cursor_time)
            .as_nanos()
            / self.granularity.as_nanos()) as usize;
        let slot = (self.cursor + offset.min(WHEEL_SLOTS - 1)) % WHEEL_SLOTS;
        self.slots[slot].push(Timer { deadline, kind });
        self.len += 1;
    }

    /// Milliseconds until the earliest scheduled timer could fire, or
    /// `None` when the wheel is empty. Approximate from above only for
    /// beyond-span timers (which re-insert on inspection).
    fn next_timeout_ms(&self, now: Instant) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        for i in 0..WHEEL_SLOTS {
            let slot = &self.slots[(self.cursor + i) % WHEEL_SLOTS];
            if let Some(earliest) = slot.iter().map(|t| t.deadline).min() {
                let wait = earliest.saturating_duration_since(now);
                // Round up so we never wake a full tick early forever.
                return Some(wait.as_millis() as u64 + 1);
            }
        }
        None
    }

    /// Moves the cursor up to `now`, pushing every due timer into
    /// `expired` (in wheel order) and re-inserting parked timers whose
    /// deadline is still ahead.
    fn advance(&mut self, now: Instant, expired: &mut Vec<TimerKind>) {
        let mut reinsert: Vec<Timer> = Vec::new();
        loop {
            let slot_end = self.cursor_time + self.granularity;
            let slot_past = slot_end <= now;
            let slot = &mut self.slots[self.cursor];
            if slot_past {
                for t in slot.drain(..) {
                    self.len -= 1;
                    if t.deadline <= now {
                        expired.push(t.kind);
                    } else {
                        reinsert.push(t);
                    }
                }
                self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
                self.cursor_time = slot_end;
            } else {
                // Current slot: fire only what is already due.
                let mut i = 0;
                while i < slot.len() {
                    if slot[i].deadline <= now {
                        expired.push(slot.swap_remove(i).kind);
                        self.len -= 1;
                    } else {
                        i += 1;
                    }
                }
                break;
            }
        }
        for t in reinsert {
            self.schedule(t.deadline, t.kind);
        }
    }
}

/// Reactor metric handles (`net.*` names). Latency histograms sample
/// only while telemetry is enabled; gauges and counters are relaxed
/// atomics and always on.
#[derive(Clone)]
struct ReactorMetrics {
    write_ns: HistogramHandle,
    read_ns: HistogramHandle,
    /// Time the loop spent blocked in `epoll_wait`.
    poll_wait_ns: HistogramHandle,
    /// Readiness events delivered per `epoll_wait` return.
    events_per_wake: HistogramHandle,
    /// Frames currently queued across all outbound rings.
    queue_depth: Gauge,
    /// Frames dropped because a ring crossed its high watermark.
    backpressure_drops: Counter,
    /// Outbound connections re-established after a drop.
    reconnects: Counter,
    /// Frame-stream bytes rescued by copy on the decode path (block
    /// rotations splitting a frame). 0 == fully zero-copy.
    decode_copy_bytes: Counter,
}

impl ReactorMetrics {
    fn new(registry: &Registry) -> Self {
        ReactorMetrics {
            write_ns: registry.histogram("net.write_ns"),
            read_ns: registry.histogram("net.read_ns"),
            poll_wait_ns: registry.histogram("net.poll_wait_ns"),
            events_per_wake: registry.histogram("net.events_per_wake"),
            queue_depth: registry.gauge("net.queue_depth"),
            backpressure_drops: registry.counter("net.backpressure_drops"),
            reconnects: registry.counter("net.reconnects"),
            decode_copy_bytes: registry.counter("net.decode_copy_bytes"),
        }
    }
}

/// Where the loop delivers inbound work: the mux's lane router.
/// Called from the loop thread — implementors must be cheap and
/// non-blocking on the hot path.
pub(crate) trait FrameSink: Send + Sync + 'static {
    /// A complete frame body arrived from `from`. The [`FrameRef`]
    /// borrows the loop's read block; holding it defers (only) that
    /// block's reuse.
    fn on_frame(&self, from: usize, frame: FrameRef);
    /// An inbound connection from `from` completed its handshake
    /// (`up`) or closed (`!up`).
    fn on_peer(&self, from: usize, up: bool);
}

/// One peer's outbound ring: encoded frames waiting for the loop to
/// put them on the wire. Lock order: a ring lock is always the
/// innermost lock and never held across a syscall other than the
/// nonblocking wake write.
struct Ring {
    frames: VecDeque<Arc<[u8]>>,
    bytes: usize,
    /// Set by the sender when the watermark was crossed; the loop
    /// answers by tearing the connection down for a fresh start.
    overflowed: bool,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            frames: VecDeque::new(),
            bytes: 0,
            overflowed: false,
        }
    }
}

/// State shared between the sender-facing [`Reactor`] handle and the
/// loop thread.
struct Shared {
    /// Outbound rings, indexed by peer.
    rings: Vec<Mutex<Ring>>,
    /// Peers whose ring changed since the loop last looked.
    dirty: Mutex<Vec<usize>>,
    /// Whether a wake byte is already in flight.
    wake_pending: AtomicBool,
    /// Write end of the wake pipe.
    wake_tx: UnixStream,
    shutdown: AtomicBool,
    connected: Vec<AtomicBool>,
    /// Frames dropped: oversize at encode time or watermark overflow.
    dropped: AtomicUsize,
}

impl Shared {
    /// Wakes the loop, deduplicating the wake byte.
    fn wake(&self) {
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            // A full pipe still wakes the loop; the byte loss is
            // harmless because one is already buffered.
            let _ = (&self.wake_tx).write(&[1]);
        }
    }
}

/// Reserved epoll token: the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Reserved epoll token: the wake pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Reads per connection per wakeup before yielding to other sockets.
const MAX_READS_PER_CONN: usize = 16;

/// One registered connection inside the loop.
enum Conn {
    /// Outbound connect in flight (`EINPROGRESS`); completion or
    /// failure arrives as `EPOLLOUT`/`EPOLLERR`.
    OutConnecting {
        peer: usize,
        stream: TcpStream,
        generation: u64,
    },
    /// Established outbound connection. `pre[pre_off..]` is the
    /// handshake preamble still going out; `headers`/`burst` hold the
    /// in-flight frame burst as parallel header/body queues submitted
    /// to `writev` without concatenation, with `off` bytes of the
    /// front header+body unit already written.
    OutUp {
        peer: usize,
        stream: TcpStream,
        pre: Vec<u8>,
        pre_off: usize,
        headers: VecDeque<[u8; 4]>,
        burst: VecDeque<Arc<[u8]>>,
        off: usize,
        /// Whether `EPOLLOUT` is currently registered.
        armed: bool,
    },
    /// Inbound connection still reading its 32-byte handshake. Reads
    /// go directly into `hello` — never past it — so every frame byte
    /// after the handshake lands in the decoder.
    InHandshake {
        stream: TcpStream,
        hello: [u8; HANDSHAKE_LEN],
        got: usize,
    },
    /// Inbound connection past the handshake, decoding frames in
    /// place. `copied_reported` is the slice of the decoder's rescue
    /// copies already published to the counter.
    InPeer {
        stream: TcpStream,
        from: ReplicaId,
        decoder: SharedDecoder,
        copied_reported: u64,
    },
}

impl Conn {
    fn fd(&self) -> i32 {
        match self {
            Conn::OutConnecting { stream, .. }
            | Conn::OutUp { stream, .. }
            | Conn::InHandshake { stream, .. }
            | Conn::InPeer { stream, .. } => stream.as_raw_fd(),
        }
    }
}

/// The event-loop thread's state: an epoll instance, the listener,
/// every peer socket, a timing wheel and a connection slab.
struct EventLoop<S> {
    id: ReplicaId,
    n: usize,
    cfg: ReactorConfig,
    epoll: Epoll,
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    sink: Arc<S>,
    addrs: Vec<SocketAddr>,
    hello: [u8; HANDSHAKE_LEN],
    /// Connection slab; epoll tokens are indices into it.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Per peer: token of its outbound connection, in any state.
    out_token: Vec<Option<usize>>,
    /// Per peer: next reconnect delay (doubles up to `backoff_max`).
    backoff: Vec<Duration>,
    /// Per peer: dial-attempt counter; guards stale dial deadlines.
    generation: Vec<u64>,
    /// Per peer: whether a connection ever succeeded (so the first
    /// connect is not counted as a reconnect).
    ever_connected: Vec<bool>,
    wheel: TimerWheel,
    metrics: ReactorMetrics,
    /// Sockets the loop currently owns (`net.conns`).
    conns_gauge: Gauge,
}

impl<S: FrameSink> EventLoop<S> {
    fn alloc(&mut self, conn: Conn) -> usize {
        self.conns_gauge.add(1);
        if let Some(token) = self.free.pop() {
            self.conns[token] = Some(conn);
            token
        } else {
            self.conns.push(Some(conn));
            self.conns.len() - 1
        }
    }

    /// Removes and drops a connection, deregistering it from epoll
    /// first (closing the fd would deregister implicitly, but being
    /// explicit keeps the interest set honest if a stream is ever
    /// handed out of the slab).
    fn release(&mut self, token: usize) {
        if let Some(conn) = self.conns[token].take() {
            let _ = self.epoll.delete(conn.fd());
            self.free.push(token);
            self.conns_gauge.sub(1);
        }
    }

    fn run(mut self) {
        for peer in 0..self.n {
            if peer != self.id {
                self.start_dial(peer);
            }
        }
        let mut events = vec![EpollEvent::default(); 256];
        let mut expired: Vec<TimerKind> = Vec::new();
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            // Sleep exactly until the next timer could fire (capped so
            // a missed wake can never wedge the loop for long).
            let timeout = self
                .wheel
                .next_timeout_ms(Instant::now())
                .unwrap_or(1000)
                .min(1000) as i32;
            let t_wait = curb_telemetry::enabled().then(Instant::now);
            let nev = self.epoll.wait(&mut events, timeout).unwrap_or_default();
            if let Some(t) = t_wait {
                self.metrics
                    .poll_wait_ns
                    .record(t.elapsed().as_nanos() as u64);
                self.metrics.events_per_wake.record(nev as u64);
            }
            for &ev in events.iter().take(nev) {
                // Copy out of the (packed) event before matching.
                let token = ev.data;
                let ready = ev.events;
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.wake_ready(),
                    token => self.conn_ready(token as usize, ready),
                }
            }
            expired.clear();
            self.wheel.advance(Instant::now(), &mut expired);
            for kind in expired.drain(..) {
                match kind {
                    TimerKind::Redial { peer } => {
                        if self.out_token[peer].is_none() {
                            self.start_dial(peer);
                        }
                    }
                    TimerKind::DialDeadline { peer, generation } => {
                        self.dial_deadline(peer, generation);
                    }
                }
            }
        }
        // Dropping the slab, listener and epoll closes every fd, so
        // the listening port is free the moment the loop exits.
    }

    // ---------------------------------------------------------------
    // Outbound side: dial → handshake preamble → vectored bursts.
    // ---------------------------------------------------------------

    fn start_dial(&mut self, peer: usize) {
        self.generation[peer] += 1;
        let generation = self.generation[peer];
        match sys::connect_nonblocking(&self.addrs[peer]) {
            Ok((stream, immediate)) => {
                let fd = stream.as_raw_fd();
                let token = self.alloc(Conn::OutConnecting {
                    peer,
                    stream,
                    generation,
                });
                self.out_token[peer] = Some(token);
                if self.epoll.add(fd, EPOLLOUT, token as u64).is_err() {
                    self.fail_dial(peer, token);
                    return;
                }
                if immediate {
                    self.finish_connect(token, peer);
                } else {
                    self.wheel.schedule(
                        Instant::now() + self.cfg.dial_timeout,
                        TimerKind::DialDeadline { peer, generation },
                    );
                }
            }
            Err(_) => self.schedule_redial(peer),
        }
    }

    fn fail_dial(&mut self, peer: usize, token: usize) {
        self.release(token);
        self.out_token[peer] = None;
        self.schedule_redial(peer);
    }

    fn schedule_redial(&mut self, peer: usize) {
        let delay = self.backoff[peer];
        self.backoff[peer] = (delay * 2).min(self.cfg.backoff_max);
        self.wheel
            .schedule(Instant::now() + delay, TimerKind::Redial { peer });
    }

    fn dial_deadline(&mut self, peer: usize, generation: u64) {
        let Some(token) = self.out_token[peer] else {
            return;
        };
        let stale = matches!(
            &self.conns[token],
            Some(Conn::OutConnecting { generation: g, .. }) if *g == generation
        );
        if stale {
            self.fail_dial(peer, token);
        }
    }

    /// Promotes a completed connect to an established connection: the
    /// handshake bytes become the write preamble and the ring is
    /// drained behind them.
    fn finish_connect(&mut self, token: usize, peer: usize) {
        let Some(conn) = self.conns[token].take() else {
            return;
        };
        let Conn::OutConnecting { stream, .. } = conn else {
            self.conns[token] = Some(conn);
            return;
        };
        let _ = stream.set_nodelay(true);
        self.conns[token] = Some(Conn::OutUp {
            peer,
            stream,
            pre: self.hello.to_vec(),
            pre_off: 0,
            headers: VecDeque::new(),
            burst: VecDeque::new(),
            off: 0,
            armed: true,
        });
        self.backoff[peer] = self.cfg.backoff_base;
        if self.ever_connected[peer] {
            self.metrics.reconnects.inc();
        }
        self.ever_connected[peer] = true;
        self.shared.connected[peer].store(true, Ordering::Relaxed);
        self.flush_out(token);
    }

    /// Tears an outbound connection down and schedules a re-dial. Any
    /// bytes in the in-flight burst are lost (at most one burst; PBFT
    /// quorums tolerate the loss) — ring frames not yet drained into
    /// the burst survive for the next connection.
    fn teardown_out(&mut self, peer: usize) {
        if let Some(token) = self.out_token[peer].take() {
            self.release(token);
        }
        self.shared.connected[peer].store(false, Ordering::Relaxed);
        self.schedule_redial(peer);
    }

    /// Writes as much pending outbound data to `token`'s socket as the
    /// kernel will take. The preamble and every queued frame
    /// (4-byte header + `Arc` body) are submitted as separate iovecs
    /// in one `writev` — the burst is never copied into a contiguous
    /// buffer. The burst refills from the peer's ring (up to
    /// `coalesce_bytes`) whenever it drains; `EPOLLOUT` is armed only
    /// while bytes remain — level-triggered readiness demands
    /// disarming, or an idle writable socket spins the loop.
    fn flush_out(&mut self, token: usize) {
        let Some(Conn::OutUp { peer, .. }) = &self.conns[token] else {
            return;
        };
        let peer = *peer;
        loop {
            // Refill the burst from the ring when it is fully written.
            let mut drained: i64 = 0;
            let mut overflowed = false;
            {
                let Some(Conn::OutUp {
                    headers,
                    burst,
                    pre,
                    pre_off,
                    ..
                }) = self.conns[token].as_mut()
                else {
                    return;
                };
                if burst.is_empty() && *pre_off == pre.len() {
                    let mut ring = self.shared.rings[peer].lock().expect("ring poisoned");
                    if ring.overflowed {
                        ring.overflowed = false;
                        overflowed = true;
                    } else {
                        let mut burst_bytes = 0usize;
                        while burst_bytes < self.cfg.coalesce_bytes {
                            let Some(frame) = ring.frames.pop_front() else {
                                break;
                            };
                            ring.bytes -= frame.len() + 4;
                            burst_bytes += frame.len() + 4;
                            headers.push_back((frame.len() as u32).to_be_bytes());
                            burst.push_back(frame);
                            drained += 1;
                        }
                    }
                }
            }
            if overflowed {
                // Watermark crossed while we were away: fresh start.
                self.teardown_out(peer);
                return;
            }
            if drained > 0 {
                self.metrics.queue_depth.sub(drained);
            }
            // Build the iovec array and write. Immutable borrow scope:
            // the raw fd is copied out so the result can be applied
            // mutably below.
            let (fd, result) = {
                let Some(Conn::OutUp {
                    stream,
                    pre,
                    pre_off,
                    headers,
                    burst,
                    off,
                    ..
                }) = self.conns[token].as_ref()
                else {
                    return;
                };
                let mut slices: Vec<IoSlice<'_>> =
                    Vec::with_capacity((burst.len() * 2 + 1).min(sys::MAX_IOVECS));
                if *pre_off < pre.len() {
                    slices.push(IoSlice::new(&pre[*pre_off..]));
                }
                for (i, (hdr, frame)) in headers.iter().zip(burst.iter()).enumerate() {
                    if slices.len() + 2 > sys::MAX_IOVECS {
                        break;
                    }
                    if i == 0 && *off > 0 {
                        // Partial front unit: resume mid-header or
                        // mid-body.
                        if *off < 4 {
                            slices.push(IoSlice::new(&hdr[*off..]));
                            slices.push(IoSlice::new(frame));
                        } else {
                            slices.push(IoSlice::new(&frame[*off - 4..]));
                        }
                    } else {
                        slices.push(IoSlice::new(hdr));
                        slices.push(IoSlice::new(frame));
                    }
                }
                if slices.is_empty() {
                    (stream.as_raw_fd(), None)
                } else {
                    let t_write = curb_telemetry::enabled().then(Instant::now);
                    let result = sys::writev_fd(stream.as_raw_fd(), &slices);
                    if let (Some(t), Ok(_)) = (t_write, &result) {
                        self.metrics.write_ns.record(t.elapsed().as_nanos() as u64);
                    }
                    (stream.as_raw_fd(), Some(result))
                }
            };
            match result {
                None => {
                    // Nothing pending: disarm EPOLLOUT if armed.
                    let Some(Conn::OutUp { armed, .. }) = self.conns[token].as_mut() else {
                        return;
                    };
                    if *armed {
                        *armed = false;
                        let _ = self.epoll.modify(fd, 0, token as u64);
                    }
                    return;
                }
                Some(Ok(0)) => {
                    self.teardown_out(peer);
                    return;
                }
                Some(Ok(written)) => {
                    let Some(Conn::OutUp {
                        pre,
                        pre_off,
                        headers,
                        burst,
                        off,
                        ..
                    }) = self.conns[token].as_mut()
                    else {
                        return;
                    };
                    let mut w = written;
                    let pre_rem = pre.len() - *pre_off;
                    let take = w.min(pre_rem);
                    *pre_off += take;
                    w -= take;
                    if *pre_off == pre.len() && !pre.is_empty() {
                        pre.clear();
                        *pre_off = 0;
                    }
                    while w > 0 {
                        let unit = 4 + burst.front().expect("written implies a unit").len();
                        let rem = unit - *off;
                        if w >= rem {
                            w -= rem;
                            *off = 0;
                            burst.pop_front();
                            headers.pop_front();
                        } else {
                            *off += w;
                            w = 0;
                        }
                    }
                }
                Some(Err(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    let Some(Conn::OutUp { armed, .. }) = self.conns[token].as_mut() else {
                        return;
                    };
                    if !*armed {
                        *armed = true;
                        let _ = self.epoll.modify(fd, EPOLLOUT, token as u64);
                    }
                    return;
                }
                Some(Err(e)) if e.kind() == io::ErrorKind::Interrupted => {}
                Some(Err(_)) => {
                    self.teardown_out(peer);
                    return;
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // Inbound side: accept → handshake → zero-copy decode.
    // ---------------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let fd = stream.as_raw_fd();
                    let token = self.alloc(Conn::InHandshake {
                        stream,
                        hello: [0; HANDSHAKE_LEN],
                        got: 0,
                    });
                    if self
                        .epoll
                        .add(fd, EPOLLIN | EPOLLRDHUP, token as u64)
                        .is_err()
                    {
                        self.release(token);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Services readiness on an inbound connection: reads until
    /// `WouldBlock` (bounded for fairness). Handshake reads fill the
    /// fixed hello buffer exactly; frame reads land in the shared
    /// decoder block and complete frames are emitted as zero-copy
    /// [`FrameRef`]s.
    fn in_ready(&mut self, token: usize) {
        // The connection is taken out of the slab while being
        // serviced so the sink and metrics can be borrowed freely; it
        // is put back unless it closed.
        let Some(mut conn) = self.conns[token].take() else {
            return;
        };
        let mut close = false;
        let mut peer_down: Option<ReplicaId> = None;
        'reads: for _ in 0..MAX_READS_PER_CONN {
            match &mut conn {
                Conn::InHandshake { stream, hello, got } => {
                    // Read exactly up to the end of the handshake —
                    // never past it — so the first frame byte lands
                    // in the decoder, not here.
                    match stream.read(&mut hello[*got..]) {
                        Ok(0) => {
                            close = true;
                            break;
                        }
                        Ok(read) => {
                            *got += read;
                            if *got < HANDSHAKE_LEN {
                                continue;
                            }
                            let Some(from) = validate_hello(hello, self.n, self.cfg.group_id)
                            else {
                                // Bad magic/id/group: close before any
                                // frame, and without a peer-down (no
                                // peer-up was announced).
                                close = true;
                                break;
                            };
                            self.sink.on_peer(from, true);
                            conn = match conn {
                                Conn::InHandshake { stream, .. } => Conn::InPeer {
                                    stream,
                                    from,
                                    decoder: SharedDecoder::new(self.cfg.max_frame),
                                    copied_reported: 0,
                                },
                                other => other,
                            };
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            close = true;
                            break;
                        }
                    }
                }
                Conn::InPeer {
                    stream,
                    from,
                    decoder,
                    copied_reported,
                } => {
                    let from = *from;
                    let buf = decoder.writable();
                    let read = match stream.read(buf) {
                        Ok(0) => {
                            close = true;
                            break;
                        }
                        Ok(read) => read,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            close = true;
                            break;
                        }
                    };
                    let t_read = curb_telemetry::enabled().then(Instant::now);
                    let mut decoded = 0u64;
                    let sink = &self.sink;
                    let fed = decoder.advance(read, |frame| {
                        decoded += 1;
                        sink.on_frame(from, frame);
                    });
                    if let (Some(t), true) = (t_read, decoded > 0) {
                        // Amortised read+decode cost per decoded frame.
                        let per_frame = t.elapsed().as_nanos() as u64 / decoded;
                        for _ in 0..decoded {
                            self.metrics.read_ns.record(per_frame);
                        }
                    }
                    let copied = decoder.copied_bytes();
                    if copied > *copied_reported {
                        self.metrics
                            .decode_copy_bytes
                            .add(copied - *copied_reported);
                        *copied_reported = copied;
                    }
                    if fed.is_err() {
                        // Hostile length prefix: the stream can never
                        // re-align, drop the connection.
                        peer_down = Some(from);
                        close = true;
                        break 'reads;
                    }
                }
                _ => break,
            }
        }
        if close {
            if peer_down.is_none() {
                if let Conn::InPeer { from, .. } = &conn {
                    peer_down = Some(*from);
                }
            }
            let _ = self.epoll.delete(conn.fd());
            drop(conn);
            self.free.push(token);
            self.conns_gauge.sub(1);
            if let Some(from) = peer_down {
                self.sink.on_peer(from, false);
            }
        } else {
            self.conns[token] = Some(conn);
        }
    }

    // ---------------------------------------------------------------
    // Dispatch.
    // ---------------------------------------------------------------

    fn conn_ready(&mut self, token: usize, ready: u32) {
        enum Action {
            FailDial(usize),
            CheckConnect(usize),
            Teardown(usize),
            Flush,
            Read,
            Nothing,
        }
        let action = match self.conns.get(token).and_then(|c| c.as_ref()) {
            Some(Conn::OutConnecting { peer, .. }) => {
                if ready & (EPOLLERR | EPOLLHUP) != 0 {
                    Action::FailDial(*peer)
                } else if ready & EPOLLOUT != 0 {
                    Action::CheckConnect(*peer)
                } else {
                    Action::Nothing
                }
            }
            Some(Conn::OutUp { peer, .. }) => {
                if ready & (EPOLLERR | EPOLLHUP) != 0 {
                    Action::Teardown(*peer)
                } else if ready & EPOLLOUT != 0 {
                    Action::Flush
                } else {
                    Action::Nothing
                }
            }
            // Readable, peer-closed and error cases all funnel through
            // the read loop, which sees EOF/errors itself.
            Some(Conn::InHandshake { .. } | Conn::InPeer { .. }) => Action::Read,
            None => Action::Nothing,
        };
        match action {
            Action::FailDial(peer) => self.fail_dial(peer, token),
            Action::CheckConnect(peer) => {
                // Connect resolved: SO_ERROR says which way.
                let result = match &self.conns[token] {
                    Some(Conn::OutConnecting { stream, .. }) => stream.take_error(),
                    _ => return,
                };
                match result {
                    Ok(None) => self.finish_connect(token, peer),
                    Ok(Some(_)) | Err(_) => self.fail_dial(peer, token),
                }
            }
            Action::Teardown(peer) => self.teardown_out(peer),
            Action::Flush => self.flush_out(token),
            Action::Read => self.in_ready(token),
            Action::Nothing => {}
        }
    }

    /// Drains the wake pipe and services every dirty ring: overflow tears the peer's connection
    /// down, fresh frames are flushed directly (the hot path writes
    /// from the wake, not from a second `EPOLLOUT` round trip).
    fn wake_ready(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.shared.wake_pending.store(false, Ordering::SeqCst);
        let dirty = {
            let mut dirty = self.shared.dirty.lock().expect("dirty poisoned");
            std::mem::take(&mut *dirty)
        };
        for peer in dirty {
            let overflowed = {
                let ring = self.shared.rings[peer].lock().expect("ring poisoned");
                ring.overflowed
            };
            match self.out_token[peer] {
                Some(token) if overflowed => {
                    self.shared.rings[peer]
                        .lock()
                        .expect("ring poisoned")
                        .overflowed = false;
                    if matches!(self.conns[token], Some(Conn::OutUp { .. })) {
                        self.teardown_out(peer);
                    }
                }
                Some(token) => {
                    if matches!(self.conns[token], Some(Conn::OutUp { .. })) {
                        self.flush_out(token);
                    }
                }
                None if overflowed => {
                    // Not connected: the ring was already emptied; the
                    // pending redial is the reconnect.
                    self.shared.rings[peer]
                        .lock()
                        .expect("ring poisoned")
                        .overflowed = false;
                }
                None => {}
            }
        }
    }
}

/// The socket engine: one event-loop thread plus the handle senders
/// use. Callers enqueue encoded `Arc<[u8]>` frames per peer and
/// receive inbound frames through their [`FrameSink`].
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    metrics: ReactorMetrics,
    thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
    /// The ring-enqueue half, shared with the fault delay line so
    /// released frames re-enter the rings without re-entering the
    /// fault gate.
    sender: RingSender,
    /// Link-fault gate on the enqueue path (cuts, delays).
    faults: Arc<LinkFaults>,
}

/// The watermarked ring-push half of the reactor: everything `enqueue`
/// needs, cloneable so the fault delay line can release frames
/// straight into the rings from its own thread.
#[derive(Clone)]
struct RingSender {
    id: ReplicaId,
    n: usize,
    high_watermark: usize,
    shared: Arc<Shared>,
    metrics: ReactorMetrics,
}

impl RingSender {
    /// Queues `frame` on `to`'s ring, applying the watermark, and
    /// wakes the loop when it needs to look.
    fn send(&self, to: ReplicaId, frame: Arc<[u8]>) {
        if to == self.id || to >= self.n {
            return;
        }
        let wire_len = frame.len() + 4;
        let notify = {
            let mut ring = self.shared.rings[to].lock().expect("ring poisoned");
            if ring.bytes + wire_len > self.high_watermark {
                // Watermark crossed: empty the ring, count every
                // casualty and ask the loop for a fresh connection.
                let casualties = (ring.frames.len() + 1) as u64;
                self.metrics.queue_depth.sub(ring.frames.len() as i64);
                ring.frames.clear();
                ring.bytes = 0;
                ring.overflowed = true;
                self.shared
                    .dropped
                    .fetch_add(casualties as usize, Ordering::Relaxed);
                self.metrics.backpressure_drops.add(casualties);
                curb_telemetry::record_event(
                    curb_telemetry::EventKind::Backpressure,
                    format!("peer {to} ring over watermark, dropped {casualties} frames"),
                );
                true
            } else {
                let was_empty = ring.frames.is_empty();
                ring.frames.push_back(frame);
                ring.bytes += wire_len;
                self.metrics.queue_depth.add(1);
                was_empty
            }
        };
        if notify {
            self.shared.dirty.lock().expect("dirty poisoned").push(to);
            self.shared.wake();
        }
    }
}

impl Reactor {
    /// Starts the event-loop thread for node `id`, which owns
    /// `listener` and dials every other address in `peer_addrs`.
    /// Inbound frames and peer up/down transitions are delivered to
    /// `sink` from the loop thread.
    pub(crate) fn bind<S: FrameSink>(
        id: ReplicaId,
        listener: TcpListener,
        peer_addrs: Vec<SocketAddr>,
        cfg: ReactorConfig,
        registry: &Registry,
        sink: Arc<S>,
    ) -> io::Result<Reactor> {
        assert!(id < peer_addrs.len(), "node id out of range");
        let n = peer_addrs.len();
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let metrics = ReactorMetrics::new(registry);

        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            rings: (0..n).map(|_| Mutex::new(Ring::new())).collect(),
            dirty: Mutex::new(Vec::new()),
            wake_pending: AtomicBool::new(false),
            wake_tx,
            shutdown: AtomicBool::new(false),
            connected: (0..n).map(|_| AtomicBool::new(false)).collect(),
            dropped: AtomicUsize::new(0),
        });

        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        let event_loop = EventLoop {
            id,
            n,
            cfg: cfg.clone(),
            epoll,
            listener,
            wake_rx,
            shared: Arc::clone(&shared),
            sink,
            addrs: peer_addrs,
            hello: encode_hello(id, n, cfg.group_id),
            conns: Vec::new(),
            free: Vec::new(),
            out_token: vec![None; n],
            backoff: vec![cfg.backoff_base; n],
            generation: vec![0; n],
            ever_connected: vec![false; n],
            wheel: TimerWheel::new(cfg.tick, Instant::now()),
            metrics: metrics.clone(),
            conns_gauge: registry.gauge("net.conns"),
        };
        let thread = thread::Builder::new()
            .name(format!("curb-net-io-{id}"))
            .spawn(move || event_loop.run())
            .expect("spawn event-loop thread");
        let sender = RingSender {
            id,
            n,
            high_watermark: cfg.high_watermark,
            shared: Arc::clone(&shared),
            metrics: metrics.clone(),
        };
        let release = sender.clone();
        let faults = LinkFaults::new(n, Arc::new(move |to, frame| release.send(to, frame)));
        Ok(Reactor {
            shared,
            metrics,
            thread: Some(thread),
            local_addr,
            sender,
            faults,
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Peers with an established outbound connection right now.
    pub(crate) fn connected_peers(&self) -> usize {
        self.shared
            .connected
            .iter()
            .filter(|c| c.load(Ordering::Relaxed))
            .count()
    }

    /// Frames dropped since startup: encode-time oversize plus
    /// watermark overflow.
    pub(crate) fn dropped_frames(&self) -> usize {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Counts one frame dropped before it reached a ring (encode-time
    /// oversize).
    pub(crate) fn count_dropped(&self) {
        self.shared.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Queues `frame` on `to`'s ring (through the link-fault gate),
    /// applying the watermark, and wakes the loop when it needs to
    /// look.
    pub(crate) fn enqueue(&self, to: ReplicaId, frame: Arc<[u8]>) {
        if let Some(frame) = self.faults.admit(to, frame) {
            self.sender.send(to, frame);
        }
    }

    /// The link-fault handle gating this reactor's outbound frames.
    pub(crate) fn faults(&self) -> Arc<LinkFaults> {
        Arc::clone(&self.faults)
    }

    /// Signals the loop to exit. The thread is joined on drop.
    pub(crate) fn shutdown(&self) {
        self.faults.stop();
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.wake();
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
        // Join the loop so every socket (and the listening port) is
        // closed by the time `drop` returns — a restarted node can
        // rebind immediately.
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        // Frames still ringed at shutdown will never be written; drain
        // them from the queue-depth gauge so it ends at zero.
        for ring in self.shared.rings.iter() {
            let mut ring = ring.lock().expect("ring poisoned");
            self.metrics.queue_depth.sub(ring.frames.len() as i64);
            ring.frames.clear();
            ring.bytes = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::ReactorTransport;
    use crate::transport::{NetEvent, Transport};
    use curb_consensus::{BytesPayload, Payload, PbftMsg};

    fn fast_cfg() -> ReactorConfig {
        ReactorConfig {
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(100),
            tick: Duration::from_millis(1),
            ..ReactorConfig::default()
        }
    }

    fn bind_group(n: usize, cfg: &ReactorConfig) -> Vec<ReactorTransport<BytesPayload>> {
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
            .map(|(id, l)| {
                ReactorTransport::bind(id, l, addrs.clone(), cfg.clone()).expect("bind transport")
            })
            .collect()
    }

    fn p(b: &[u8]) -> BytesPayload {
        BytesPayload(b.to_vec())
    }

    #[test]
    fn two_nodes_exchange_messages() {
        let group = bind_group(2, &fast_cfg());
        let payload = p(b"over epoll");
        let msg = PbftMsg::PrePrepare {
            view: 0,
            seq: 1,
            digest: payload.digest(),
            payload,
        };
        group[0].send(1, &msg);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match group[1].recv_timeout(Duration::from_millis(100)) {
                Some(NetEvent::Inbound { from, msg: got }) => {
                    assert_eq!(from, 0);
                    assert_eq!(got, msg);
                    break;
                }
                Some(NetEvent::PeerUp(0)) => continue,
                other => assert!(
                    Instant::now() < deadline,
                    "timed out waiting for message, last event {other:?}"
                ),
            }
        }
    }

    #[test]
    fn broadcast_reaches_every_peer() {
        let group = bind_group(3, &fast_cfg());
        let msg: PbftMsg<BytesPayload> = PbftMsg::Prepare {
            view: 0,
            seq: 7,
            digest: p(b"x").digest(),
        };
        group[1].broadcast(&msg);
        for r in [0usize, 2] {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match group[r].recv_timeout(Duration::from_millis(100)) {
                    Some(NetEvent::Inbound { from: 1, msg: got }) => {
                        assert_eq!(got, msg);
                        break;
                    }
                    Some(_) => continue,
                    None => assert!(Instant::now() < deadline, "replica {r} never got broadcast"),
                }
            }
        }
        // Broadcast never loops back to the sender.
        assert!(matches!(
            group[1].recv_timeout(Duration::from_millis(50)),
            None | Some(NetEvent::PeerUp(_))
        ));
    }

    #[test]
    fn dial_backoff_recovers_when_peer_comes_up_late() {
        // Reserve an address, then release it so node 1 starts down.
        let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
        let late_addr = placeholder.local_addr().expect("addr");
        drop(placeholder);

        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addrs = vec![l0.local_addr().expect("addr"), late_addr];
        let cfg = fast_cfg();
        let t0: ReactorTransport<BytesPayload> =
            ReactorTransport::bind(0, l0, addrs.clone(), cfg.clone()).expect("bind transport");

        let d = p(b"x").digest();
        t0.send(
            1,
            &PbftMsg::Prepare {
                view: 0,
                seq: 1,
                digest: d,
            },
        );
        // Let several dial attempts fail first.
        thread::sleep(Duration::from_millis(50));
        assert_eq!(t0.connected_peers(), 0);

        let l1 = TcpListener::bind(late_addr).expect("rebind late addr");
        let t1: ReactorTransport<BytesPayload> =
            ReactorTransport::bind(1, l1, addrs, cfg).expect("bind transport");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match t1.recv_timeout(Duration::from_millis(100)) {
                Some(NetEvent::Inbound {
                    from: 0,
                    msg: PbftMsg::Prepare { .. },
                }) => break,
                _ => assert!(
                    Instant::now() < deadline,
                    "queued frame never arrived after peer came up"
                ),
            }
        }
        assert_eq!(t0.connected_peers(), 1);
    }

    /// A transport for replica 1 of a group of 2 whose peer 0 does not
    /// exist, so the only inbound traffic is what the test injects.
    fn lone_transport(cfg: ReactorConfig) -> ReactorTransport<BytesPayload> {
        let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dead_addr = placeholder.local_addr().expect("addr");
        drop(placeholder);
        let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addrs = vec![dead_addr, l1.local_addr().expect("addr")];
        ReactorTransport::bind(1, l1, addrs, cfg).expect("bind transport")
    }

    #[test]
    fn handshake_rejects_bad_magic_and_bad_ids() {
        let t1 = lone_transport(fast_cfg());
        let addr = t1.local_addr();

        // Garbage magic: connection must be dropped without events.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&[b'X'; HANDSHAKE_LEN]).expect("write");
        // Out-of-range id.
        let mut s2 = TcpStream::connect(addr).expect("connect");
        s2.write_all(&encode_hello(7, 2, 0)).expect("write");
        // Wrong group size.
        let mut s3 = TcpStream::connect(addr).expect("connect");
        s3.write_all(&encode_hello(0, 5, 0)).expect("write");
        // Wrong group id.
        let mut s4 = TcpStream::connect(addr).expect("connect");
        s4.write_all(&encode_hello(0, 2, 3)).expect("write");

        assert_eq!(t1.recv_timeout(Duration::from_millis(200)), None);
    }

    #[test]
    fn oversized_frame_closes_connection() {
        let t1 = lone_transport(ReactorConfig {
            max_frame: 64,
            ..fast_cfg()
        });
        let mut s = TcpStream::connect(t1.local_addr()).expect("connect");
        s.write_all(&encode_hello(0, 2, 0)).expect("write");
        assert_eq!(
            t1.recv_timeout(Duration::from_secs(2)),
            Some(NetEvent::PeerUp(0))
        );
        s.write_all(&(1u32 << 20).to_be_bytes())
            .expect("write length");
        assert_eq!(
            t1.recv_timeout(Duration::from_secs(2)),
            Some(NetEvent::PeerDown(0))
        );
    }

    #[test]
    fn watermark_overflow_drops_and_counts() {
        // Peer 1 never comes up, so frames pile into its ring until
        // the tiny watermark trips.
        let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dead_addr = placeholder.local_addr().expect("addr");
        drop(placeholder);
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addrs = vec![l0.local_addr().expect("addr"), dead_addr];
        let cfg = ReactorConfig {
            high_watermark: 256,
            ..fast_cfg()
        };
        let registry = Registry::new();
        let t0: ReactorTransport<BytesPayload> =
            ReactorTransport::bind_with_registry(0, l0, addrs, cfg, registry.clone())
                .expect("bind transport");
        let payload = p(&[0xAB; 100]);
        let msg = PbftMsg::PrePrepare {
            view: 0,
            seq: 1,
            digest: payload.digest(),
            payload,
        };
        for _ in 0..8 {
            t0.send(1, &msg);
        }
        assert!(
            t0.dropped_frames() > 0,
            "watermark must have tripped at least once"
        );
        assert!(
            registry.counter("net.backpressure_drops").get() > 0,
            "backpressure drops must be published to the registry"
        );
        // The gauge never exceeds what a ring may legally hold and
        // always drains to zero with the transport.
        drop(t0);
        assert_eq!(registry.gauge("net.queue_depth").get(), 0);
    }

    #[test]
    fn shutdown_frees_the_listening_port() {
        let cfg = fast_cfg();
        let group = bind_group(2, &cfg);
        let addr = group[0].local_addr();
        drop(group);
        // The port must be rebindable immediately after drop.
        TcpListener::bind(addr).expect("port released on drop");
    }

    #[test]
    fn timer_wheel_orders_and_reinserts() {
        let now = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(4), now);
        assert_eq!(wheel.next_timeout_ms(now), None);
        wheel.schedule(
            now + Duration::from_millis(10),
            TimerKind::Redial { peer: 1 },
        );
        wheel.schedule(
            now + Duration::from_millis(3),
            TimerKind::Redial { peer: 2 },
        );
        // A deadline far beyond the wheel span parks in the last slot.
        wheel.schedule(now + Duration::from_secs(30), TimerKind::Redial { peer: 3 });
        let timeout = wheel.next_timeout_ms(now).expect("not empty");
        assert!(
            timeout <= 5,
            "earliest timer bounds the wait, got {timeout}"
        );

        let mut expired = Vec::new();
        wheel.advance(now + Duration::from_millis(5), &mut expired);
        assert_eq!(expired, vec![TimerKind::Redial { peer: 2 }]);
        expired.clear();
        wheel.advance(now + Duration::from_millis(20), &mut expired);
        assert_eq!(expired, vec![TimerKind::Redial { peer: 1 }]);
        // The far timer survives laps of the wheel without firing.
        expired.clear();
        wheel.advance(now + Duration::from_secs(5), &mut expired);
        assert!(expired.is_empty(), "far timer must not fire early");
        wheel.advance(now + Duration::from_secs(31), &mut expired);
        assert_eq!(expired, vec![TimerKind::Redial { peer: 3 }]);
        assert_eq!(wheel.next_timeout_ms(now), None, "wheel drained");
    }
}
