//! Link-level fault injection for the socket transports.
//!
//! A [`LinkFaults`] handle sits on the outbound enqueue path of the
//! socket engine, in front of the event loop's per-peer rings (under
//! [`MuxTransport`](crate::MuxTransport) and
//! [`ReactorTransport`](crate::ReactorTransport)). A test or a
//! scenario script uses it to inject network pathologies **without
//! touching the kernel**:
//!
//! * **Cut** (`cut`/`heal`): frames to a cut peer are silently dropped
//!   at the sender, exactly as if the path blackholed them. Cutting
//!   both directions of every pair across a boundary is a partition;
//!   cutting every link of one node isolates it (controller "churn"
//!   without losing its in-memory state).
//! * **Delay** (`set_delay`/`clear_delay`): frames to a slowed peer
//!   are parked on a private delay-line thread and re-enqueued after
//!   the configured latency — a slow WAN link, not a dead one. The
//!   per-peer delay is constant while set, so frame order toward a
//!   peer is preserved (FIFO through the line). A frame parked when
//!   the link is later cut is dropped at release time, like a packet
//!   in flight when the link died.
//!
//! Faults apply to frames *entering* the transport after the fault is
//! set; frames already queued or on the wire are unaffected, which is
//! the same contract a real mid-round network failure has. The handle
//! is lock-free on the hot path (two relaxed atomic loads per frame
//! when no fault is set) and the delay-line thread is only spawned on
//! the first delayed frame, so transports that never see a fault keep
//! their exact thread census — the thread-count tests still hold.
//!
//! Reconnects are deliberately left alone: a cut only stops *frames*,
//! not the dialer, so healing a partition needs no reconnect storm —
//! the still-open sockets resume instantly, matching the paper's
//! partition-heal model where the control channel recovers as soon as
//! the path does.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Re-enqueues a released frame into the owning transport's raw
/// (post-fault) send path.
pub(crate) type Deliver = Arc<dyn Fn(usize, Arc<[u8]>) + Send + Sync + 'static>;

/// A frame parked on the delay line, ordered by release time (then by
/// admission order, so equal-delay frames keep FIFO).
struct Parked {
    release_at: Instant,
    seq: u64,
    to: usize,
    frame: Arc<[u8]>,
}

impl PartialEq for Parked {
    fn eq(&self, other: &Self) -> bool {
        self.release_at == other.release_at && self.seq == other.seq
    }
}
impl Eq for Parked {}
impl PartialOrd for Parked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Parked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest release is
        // at the top.
        other
            .release_at
            .cmp(&self.release_at)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The live per-peer fault flags, shared between the transport-facing
/// handle and the delay-line thread.
struct Flags {
    /// Outbound frames to peer `i` are dropped while `cut[i]`.
    cut: Vec<AtomicBool>,
    /// Outbound frames to peer `i` are held this many nanoseconds.
    delay_ns: Vec<AtomicU64>,
    /// Frames dropped because their peer was cut (admit or release).
    dropped: AtomicU64,
    /// Frames that went through the delay line.
    delayed: AtomicU64,
}

/// The delay line: a release-ordered heap the admit path pushes into
/// and the (lazily spawned) line thread drains.
struct Line {
    heap: Mutex<BinaryHeap<Parked>>,
    wake: Condvar,
    spawned: AtomicBool,
    shutdown: AtomicBool,
}

/// Per-peer outbound fault state for one transport.
///
/// Obtained from a transport's `faults()` accessor; hold it behind the
/// `Arc` the accessor returns and drive it from any thread while the
/// transport runs.
pub struct LinkFaults {
    flags: Arc<Flags>,
    line: Arc<Line>,
    deliver: Deliver,
    /// Admission-order tiebreaker for equal release instants.
    next_seq: AtomicU64,
}

impl std::fmt::Debug for LinkFaults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkFaults")
            .field("peers", &self.flags.cut.len())
            .field("dropped", &self.dropped())
            .field("delayed", &self.delayed())
            .finish()
    }
}

impl LinkFaults {
    /// Creates the fault state for `n` peers; `deliver` is the owning
    /// transport's raw enqueue, used to release delayed frames.
    pub(crate) fn new(n: usize, deliver: Deliver) -> Arc<LinkFaults> {
        Arc::new(LinkFaults {
            flags: Arc::new(Flags {
                cut: (0..n).map(|_| AtomicBool::new(false)).collect(),
                delay_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
                dropped: AtomicU64::new(0),
                delayed: AtomicU64::new(0),
            }),
            line: Arc::new(Line {
                heap: Mutex::new(BinaryHeap::new()),
                wake: Condvar::new(),
                spawned: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
            }),
            deliver,
            next_seq: AtomicU64::new(0),
        })
    }

    /// A free-standing handle (released frames go nowhere) for tests
    /// that exercise flag bookkeeping without a transport underneath.
    pub fn for_testing(n: usize) -> Arc<LinkFaults> {
        LinkFaults::new(n, Arc::new(|_, _| {}))
    }

    /// Number of peers this handle covers.
    pub fn peers(&self) -> usize {
        self.flags.cut.len()
    }

    /// Drops all future outbound frames to `peer`.
    pub fn cut(&self, peer: usize) {
        if let Some(c) = self.flags.cut.get(peer) {
            c.store(true, Ordering::Relaxed);
        }
    }

    /// Resumes outbound frames to `peer`.
    pub fn heal(&self, peer: usize) {
        if let Some(c) = self.flags.cut.get(peer) {
            c.store(false, Ordering::Relaxed);
        }
    }

    /// Heals every cut and clears every delay.
    pub fn heal_all(&self) {
        for c in &self.flags.cut {
            c.store(false, Ordering::Relaxed);
        }
        for d in &self.flags.delay_ns {
            d.store(0, Ordering::Relaxed);
        }
    }

    /// Whether outbound frames to `peer` are currently dropped.
    pub fn is_cut(&self, peer: usize) -> bool {
        self.flags
            .cut
            .get(peer)
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Holds future outbound frames to `peer` for `delay` before they
    /// reach the transport's queue. Zero clears the delay.
    pub fn set_delay(&self, peer: usize, delay: Duration) {
        if let Some(d) = self.flags.delay_ns.get(peer) {
            d.store(delay.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Clears the outbound delay toward `peer`.
    pub fn clear_delay(&self, peer: usize) {
        self.set_delay(peer, Duration::ZERO);
    }

    /// The currently configured outbound delay toward `peer`.
    pub fn delay_ns(&self, peer: usize) -> u64 {
        self.flags
            .delay_ns
            .get(peer)
            .map_or(0, |d| d.load(Ordering::Relaxed))
    }

    /// Frames dropped because their peer was cut.
    pub fn dropped(&self) -> u64 {
        self.flags.dropped.load(Ordering::Relaxed)
    }

    /// Frames routed through the delay line.
    pub fn delayed(&self) -> u64 {
        self.flags.delayed.load(Ordering::Relaxed)
    }

    /// The fault gate on the transport's enqueue path: returns the
    /// frame when it should proceed unimpeded, or `None` when the
    /// fault state consumed it (dropped on a cut link, or parked on
    /// the delay line for later release).
    pub(crate) fn admit(&self, to: usize, frame: Arc<[u8]>) -> Option<Arc<[u8]>> {
        if self.is_cut(to) {
            self.flags.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let delay = self.delay_ns(to);
        if delay == 0 {
            return Some(frame);
        }
        self.flags.delayed.fetch_add(1, Ordering::Relaxed);
        self.park(to, frame, Duration::from_nanos(delay));
        None
    }

    /// Parks a frame on the delay line, spawning the line thread on
    /// first use.
    fn park(&self, to: usize, frame: Arc<[u8]>, delay: Duration) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut heap = self.line.heap.lock().expect("delay line poisoned");
            heap.push(Parked {
                release_at: Instant::now() + delay,
                seq,
                to,
                frame,
            });
        }
        if !self.line.spawned.swap(true, Ordering::SeqCst) {
            let line = Arc::clone(&self.line);
            let flags = Arc::clone(&self.flags);
            let deliver = Arc::clone(&self.deliver);
            let _ = thread::Builder::new()
                .name("curb-net-fault".into())
                .spawn(move || delay_line_loop(&line, &flags, &deliver));
        }
        self.line.wake.notify_one();
    }

    /// Signals the delay-line thread (if running) to exit; called by
    /// the owning transport's shutdown and on handle drop.
    pub(crate) fn stop(&self) {
        self.line.shutdown.store(true, Ordering::Relaxed);
        self.line.wake.notify_all();
    }
}

impl Drop for LinkFaults {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The delay-line thread body: sleep until the earliest release time,
/// then hand the frame back to the transport — unless its link was cut
/// while it was in flight.
fn delay_line_loop(line: &Line, flags: &Flags, deliver: &Deliver) {
    let mut heap = line.heap.lock().expect("delay line poisoned");
    loop {
        if line.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        match heap.peek() {
            Some(next) if next.release_at <= now => {
                let parked = heap.pop().expect("peeked entry exists");
                drop(heap);
                if flags
                    .cut
                    .get(parked.to)
                    .is_some_and(|c| c.load(Ordering::Relaxed))
                {
                    flags.dropped.fetch_add(1, Ordering::Relaxed);
                } else {
                    deliver(parked.to, parked.frame);
                }
                heap = line.heap.lock().expect("delay line poisoned");
            }
            peeked => {
                let wait = peeked
                    .map(|next| next.release_at.saturating_duration_since(now))
                    .unwrap_or(Duration::from_millis(100))
                    .min(Duration::from_millis(100));
                let (guard, _) = line
                    .wake
                    .wait_timeout(heap, wait.max(Duration::from_micros(50)))
                    .expect("delay line poisoned");
                heap = guard;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn harness(n: usize) -> (Arc<LinkFaults>, std::sync::mpsc::Receiver<(usize, Vec<u8>)>) {
        let (tx, rx) = channel();
        let deliver: Deliver = Arc::new(move |to, frame: Arc<[u8]>| {
            let _ = tx.send((to, frame.to_vec()));
        });
        (LinkFaults::new(n, deliver), rx)
    }

    fn frame(b: &[u8]) -> Arc<[u8]> {
        Arc::from(b)
    }

    #[test]
    fn no_fault_passes_through_without_threads() {
        let (faults, rx) = harness(3);
        assert!(faults.admit(1, frame(b"a")).is_some());
        assert!(!faults.line.spawned.load(Ordering::SeqCst));
        assert_eq!(faults.dropped(), 0);
        assert!(rx.try_recv().is_err(), "deliver is only for delayed frames");
    }

    #[test]
    fn cut_drops_and_heal_restores() {
        let (faults, _rx) = harness(2);
        faults.cut(1);
        assert!(faults.admit(1, frame(b"x")).is_none());
        assert_eq!(faults.dropped(), 1);
        faults.heal(1);
        assert!(faults.admit(1, frame(b"y")).is_some());
        // Other peers were never affected.
        assert!(faults.admit(0, frame(b"z")).is_some());
    }

    #[test]
    fn delay_releases_in_fifo_order() {
        let (faults, rx) = harness(2);
        faults.set_delay(1, Duration::from_millis(20));
        for b in [b"1", b"2", b"3"] {
            assert!(faults.admit(1, frame(b)).is_none(), "parked, not passed");
        }
        assert_eq!(faults.delayed(), 3);
        let mut got = Vec::new();
        for _ in 0..3 {
            let (to, bytes) = rx
                .recv_timeout(Duration::from_secs(2))
                .expect("delayed frame released");
            assert_eq!(to, 1);
            got.push(bytes);
        }
        assert_eq!(got, vec![b"1".to_vec(), b"2".to_vec(), b"3".to_vec()]);
        faults.clear_delay(1);
        assert!(faults.admit(1, frame(b"4")).is_some(), "delay cleared");
        faults.stop();
    }

    #[test]
    fn cut_while_parked_drops_at_release() {
        let (faults, rx) = harness(2);
        faults.set_delay(1, Duration::from_millis(30));
        assert!(faults.admit(1, frame(b"doomed")).is_none());
        faults.cut(1);
        assert!(
            rx.recv_timeout(Duration::from_millis(300)).is_err(),
            "frame parked before the cut must not be released"
        );
        assert_eq!(faults.dropped(), 1);
        faults.stop();
    }

    #[test]
    fn heal_all_clears_cuts_and_delays() {
        let (faults, _rx) = harness(3);
        faults.cut(0);
        faults.set_delay(2, Duration::from_millis(5));
        faults.heal_all();
        assert!(!faults.is_cut(0));
        assert_eq!(faults.delay_ns(2), 0);
        assert!(faults.admit(0, frame(b"a")).is_some());
        assert!(faults.admit(2, frame(b"b")).is_some());
    }
}
