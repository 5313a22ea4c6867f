//! Append-only write-ahead log with CRC-framed records, fsync batched
//! on a dedicated flusher thread, torn-tail truncation on open and a
//! streaming read side.
//!
//! The cluster node appends every committed block here *before*
//! acknowledging it, so a crash loses at most the un-fsynced tail —
//! and because the fsync happens on a dedicated flusher thread
//! (batched by [`WalConfig::fsync_interval`] / [`WalConfig::fsync_bytes`]),
//! persistence never blocks the reactor or runner hot path: an append
//! is one channel send.
//!
//! # On-disk format
//!
//! The log is a directory of segment files, each named by the sequence
//! number of its first record:
//!
//! ```text
//! wal-{first_seq:016x}.seg := magic "CURBWAL\x01" | record*
//! record := seq:u64 | len:u32 | crc:u32 | bytes[len]
//! ```
//!
//! The CRC (IEEE 802.3, reflected polynomial `0xEDB88320`) covers the
//! `seq` and `len` fields plus the body, so a torn or bit-flipped tail
//! is always detected. Opening the log streams every segment in order
//! and truncates the first invalid suffix it finds (a crash mid-write
//! leaves exactly one torn tail); segments after a torn one are
//! discarded — the longest valid *prefix* wins, matching what was ever
//! acknowledged durable.
//!
//! The read side streams: [`Wal::open_with`] and [`replay`] hand records
//! to a visitor one at a time, so recovery memory does not grow with
//! the log.
//!
//! Sequence numbers must be appended in strictly increasing order.
//! Segments are never deleted: for the cluster's chain store they are
//! the archive of the full ledger.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Segment file magic: `CURBWAL` plus a format version byte.
pub const WAL_MAGIC: &[u8; 8] = b"CURBWAL\x01";

/// Fixed bytes per record header: `seq:u64 | len:u32 | crc:u32`.
pub const RECORD_HEADER: usize = 16;

/// Cap on one record body (64 MiB, matching the chain codec's byte
/// field cap); a larger length claim in a header is treated as
/// corruption, not an allocation request.
pub const MAX_RECORD: usize = 64 << 20;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotone record sequence number (the block height for the
    /// cluster chain log).
    pub seq: u64,
    /// The record body.
    pub bytes: Vec<u8>,
}

/// IEEE CRC-32 (reflected polynomial `0xEDB88320`) over `data`,
/// starting from `crc` (pass `0` for a fresh checksum). Chaining calls
/// checksums a logical concatenation without materialising it.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    // Table built on first use; 1 KiB, shared process-wide.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut c = !crc;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// IEEE CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// The CRC stored in a record header: over `seq`, `len` and the body.
fn record_crc(seq: u64, bytes: &[u8]) -> u32 {
    let mut hdr = [0u8; 12];
    hdr[..8].copy_from_slice(&seq.to_be_bytes());
    hdr[8..].copy_from_slice(&(bytes.len() as u32).to_be_bytes());
    crc32_update(crc32(&hdr), bytes)
}

/// Appends one framed record (`seq | len | crc | bytes`) to `out`.
pub fn encode_record(out: &mut Vec<u8>, seq: u64, bytes: &[u8]) {
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&record_crc(seq, bytes).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// Decodes consecutive records from `buf` (no segment magic), stopping
/// at the first truncated, oversized or CRC-mismatching record.
/// Returns the decoded records plus the byte length of the valid
/// prefix — the recovery point a torn tail is truncated back to.
pub fn decode_records(buf: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= RECORD_HEADER {
        let seq = u64::from_be_bytes(buf[pos..pos + 8].try_into().expect("8 bytes"));
        let len = u32::from_be_bytes(buf[pos + 8..pos + 12].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(buf[pos + 12..pos + 16].try_into().expect("4 bytes"));
        if len > MAX_RECORD || buf.len() - pos - RECORD_HEADER < len {
            break; // hostile length or torn mid-body
        }
        let body = &buf[pos + RECORD_HEADER..pos + RECORD_HEADER + len];
        if record_crc(seq, body) != crc {
            break; // bit rot or torn mid-header
        }
        records.push(WalRecord {
            seq,
            bytes: body.to_vec(),
        });
        pos += RECORD_HEADER + len;
    }
    (records, pos)
}

/// Push-based incremental record decoder: feed whatever chunk a reader
/// produced — one byte or a megabyte — and complete, CRC-valid records
/// are emitted in order. A CRC mismatch or hostile length poisons the
/// decoder (a desynced record stream cannot re-align), mirroring
/// [`decode_records`] stopping at the same point.
#[derive(Debug, Default)]
pub struct WalDecoder {
    buf: Vec<u8>,
    poisoned: bool,
}

impl WalDecoder {
    /// A fresh decoder positioned at a record boundary.
    pub fn new() -> WalDecoder {
        WalDecoder::default()
    }

    /// Consumes `chunk`, invoking `on_record` once per completed valid
    /// record. Returns `false` (poisoned) once an invalid record is
    /// hit; everything before it was already emitted.
    pub fn feed(&mut self, chunk: &[u8], mut on_record: impl FnMut(WalRecord)) -> bool {
        if self.poisoned {
            return false;
        }
        self.buf.extend_from_slice(chunk);
        let mut pos = 0usize;
        while self.buf.len() - pos >= RECORD_HEADER {
            let hdr = &self.buf[pos..pos + RECORD_HEADER];
            let seq = u64::from_be_bytes(hdr[..8].try_into().expect("8 bytes"));
            let len = u32::from_be_bytes(hdr[8..12].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_be_bytes(hdr[12..16].try_into().expect("4 bytes"));
            if len > MAX_RECORD {
                self.poisoned = true;
                break;
            }
            if self.buf.len() - pos - RECORD_HEADER < len {
                break; // body incomplete; wait for more input
            }
            let body = &self.buf[pos + RECORD_HEADER..pos + RECORD_HEADER + len];
            if record_crc(seq, body) != crc {
                self.poisoned = true;
                break;
            }
            on_record(WalRecord {
                seq,
                bytes: body.to_vec(),
            });
            pos += RECORD_HEADER + len;
        }
        self.buf.drain(..pos);
        !self.poisoned
    }

    /// Whether the decoder sits exactly on a record boundary with no
    /// partial input buffered (and was never poisoned). A stream that
    /// ends non-aligned had a torn tail.
    pub fn is_aligned(&self) -> bool {
        self.buf.is_empty() && !self.poisoned
    }
}

/// Sizing and durability knobs for [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Roll to a new segment file once the current one exceeds this
    /// many bytes (checked at record boundaries).
    pub segment_bytes: u64,
    /// Longest the flusher lets appended bytes sit un-fsynced.
    pub fsync_interval: Duration,
    /// Fsync as soon as this many bytes are pending, even before the
    /// interval elapses.
    pub fsync_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 4 << 20,
            fsync_interval: Duration::from_millis(5),
            fsync_bytes: 256 << 10,
        }
    }
}

/// A point-in-time view of the flusher's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (acknowledged by the flusher).
    pub records: u64,
    /// Record bytes written (framing included).
    pub bytes: u64,
    /// `fsync` calls issued — the batching win is `records / fsyncs`.
    pub fsyncs: u64,
}

enum FlushCmd {
    Append { seq: u64, framed: Vec<u8> },
    Sync(SyncSender<()>),
    Shutdown,
}

#[derive(Default)]
struct SharedCounters {
    records: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
}

/// The append-only segment log. See the module docs for the format and
/// durability model. Appends are non-blocking (one channel send to the
/// flusher thread); [`Wal::sync`] is the blocking durability barrier.
pub struct Wal {
    tx: Sender<FlushCmd>,
    thread: Option<JoinHandle<()>>,
    counters: Arc<SharedCounters>,
    error: Arc<Mutex<Option<String>>>,
}

/// The segment the flusher thread is appending to.
struct Segment {
    file: File,
    /// Bytes written to the file (magic included).
    len: u64,
}

/// Flusher-thread state.
struct Flusher {
    dir: PathBuf,
    cfg: WalConfig,
    current: Option<Segment>,
    /// Bytes appended since the last fsync.
    pending: u64,
    last_sync: Instant,
    counters: Arc<SharedCounters>,
    error: Arc<Mutex<Option<String>>>,
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:016x}.seg"))
}

/// Parses `wal-{seq:016x}.seg`; `None` for unrelated files.
fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    u64::from_str_radix(hex, 16).ok()
}

impl Flusher {
    fn fail(&self, what: &str, e: &io::Error) {
        let mut slot = self.error.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(format!("{what}: {e}"));
        }
    }

    fn append(&mut self, seq: u64, framed: &[u8]) {
        // Roll at record boundaries once the current segment is full.
        if self
            .current
            .as_ref()
            .is_some_and(|s| s.len >= self.cfg.segment_bytes)
        {
            self.sync_now();
            self.current = None;
        }
        if self.current.is_none() {
            let path = segment_path(&self.dir, seq);
            match OpenOptions::new().create(true).append(true).open(&path) {
                Ok(mut file) => {
                    if let Err(e) = file.write_all(WAL_MAGIC) {
                        self.fail("write segment magic", &e);
                        return;
                    }
                    self.current = Some(Segment {
                        file,
                        len: WAL_MAGIC.len() as u64,
                    });
                }
                Err(e) => {
                    self.fail("create segment", &e);
                    return;
                }
            }
        }
        let segment = self.current.as_mut().expect("opened above");
        if let Err(e) = segment.file.write_all(framed) {
            self.fail("append record", &e);
            return;
        }
        segment.len += framed.len() as u64;
        self.pending += framed.len() as u64;
        self.counters.records.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(framed.len() as u64, Ordering::Relaxed);
        if self.pending >= self.cfg.fsync_bytes {
            self.sync_now();
        }
    }

    fn sync_now(&mut self) {
        self.last_sync = Instant::now();
        if self.pending == 0 {
            return;
        }
        if let Some(segment) = &mut self.current {
            if let Err(e) = segment.file.sync_data() {
                let e2 = io::Error::new(e.kind(), e.to_string());
                self.fail("fsync segment", &e2);
            }
            self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.pending = 0;
    }

    fn run(mut self, rx: Receiver<FlushCmd>) {
        loop {
            let timeout = self
                .cfg
                .fsync_interval
                .saturating_sub(self.last_sync.elapsed());
            match rx.recv_timeout(if self.pending > 0 {
                timeout
            } else {
                self.cfg.fsync_interval
            }) {
                Ok(FlushCmd::Append { seq, framed }) => self.append(seq, &framed),
                Ok(FlushCmd::Sync(ack)) => {
                    self.sync_now();
                    let _ = ack.send(());
                }
                Ok(FlushCmd::Shutdown) | Err(RecvTimeoutError::Disconnected) => {
                    self.sync_now();
                    return;
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.pending > 0 && self.last_sync.elapsed() >= self.cfg.fsync_interval {
                        self.sync_now();
                    }
                }
            }
        }
    }
}

/// Bytes read from a segment file per [`WalDecoder::feed`] call.
const SCAN_CHUNK: usize = 64 << 10;

/// The segment files in `dir`, ordered by first sequence number.
fn list_segments(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(first_seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            segments.push((first_seq, entry.path()));
        }
    }
    segments.sort();
    Ok(segments.into_iter().map(|(_, path)| path).collect())
}

/// Streams one segment file through a [`WalDecoder`] in
/// [`SCAN_CHUNK`]-sized reads, handing each valid record to `visit` —
/// memory is one chunk plus one record, whatever the file's size or the
/// lengths its headers claim. Returns the byte length of the valid
/// prefix (magic included; `0` when even the magic is incomplete or
/// wrong) and whether the file holds anything past that prefix: a torn,
/// corrupt or hostile tail.
fn scan_segment(
    path: &Path,
    visit: &mut dyn FnMut(WalRecord) -> io::Result<()>,
) -> io::Result<(u64, bool)> {
    let mut file = File::open(path)?;
    let mut magic = [0u8; WAL_MAGIC.len()];
    match file.read_exact(&mut magic) {
        Ok(()) if &magic == WAL_MAGIC => {}
        Ok(()) => return Ok((0, true)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok((0, true)),
        Err(e) => return Err(e),
    }
    let mut chunk = vec![0u8; SCAN_CHUNK];
    let mut decoder = WalDecoder::new();
    let mut valid = WAL_MAGIC.len() as u64;
    loop {
        let n = file.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        let mut failed = None;
        let aligned = decoder.feed(&chunk[..n], |record| {
            if failed.is_none() {
                valid += (RECORD_HEADER + record.bytes.len()) as u64;
                failed = visit(record).err();
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        if !aligned {
            break;
        }
    }
    Ok((valid, !decoder.is_aligned()))
}

/// Streams every valid record of the log in `dir` to `visit`, in
/// sequence order, without opening it for append or modifying any
/// file. Stops quietly at the first torn point, as [`Wal::open_with`]
/// would truncate there.
///
/// # Errors
///
/// Propagates I/O errors and the first error `visit` returns.
pub fn replay(dir: &Path, mut visit: impl FnMut(WalRecord) -> io::Result<()>) -> io::Result<()> {
    for path in list_segments(dir)? {
        if scan_segment(&path, &mut visit)?.1 {
            break;
        }
    }
    Ok(())
}

impl Wal {
    /// [`Wal::open_with`], collecting the records instead of streaming
    /// them.
    ///
    /// # Errors
    ///
    /// As [`Wal::open_with`].
    pub fn open(dir: &Path, cfg: WalConfig) -> io::Result<(Wal, Vec<WalRecord>)> {
        let mut records = Vec::new();
        let wal = Wal::open_with(dir, cfg, |record| {
            records.push(record);
            Ok(())
        })?;
        Ok((wal, records))
    }

    /// Opens (or creates) the log in `dir`, streaming every valid
    /// record to `visit` in sequence order. A torn tail — a crash
    /// mid-write — is truncated back to the longest valid prefix;
    /// segments after a torn one are deleted.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from scanning, reading or truncating the
    /// segment files. An error from `visit` aborts the open before the
    /// segment it was reading is touched.
    pub fn open_with(
        dir: &Path,
        cfg: WalConfig,
        mut visit: impl FnMut(WalRecord) -> io::Result<()>,
    ) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        let mut segments = list_segments(dir)?;
        for i in 0..segments.len() {
            let path = &segments[i];
            let (valid, torn) = scan_segment(path, &mut visit)?;
            if !torn {
                continue;
            }
            // Anything after the torn point is beyond the longest
            // valid prefix and must not survive. A segment without a
            // complete magic was created but never written.
            let keep = if valid == 0 {
                fs::remove_file(path)?;
                i
            } else {
                OpenOptions::new().write(true).open(path)?.set_len(valid)?;
                i + 1
            };
            for path in &segments[i + 1..] {
                fs::remove_file(path)?;
            }
            segments.truncate(keep);
            break;
        }
        // Reopen the last surviving segment for appending.
        let current = match segments.pop() {
            Some(path) => {
                let file = OpenOptions::new().append(true).open(&path)?;
                let len = file.metadata()?.len();
                Some(Segment { file, len })
            }
            None => None,
        };
        let counters = Arc::new(SharedCounters::default());
        let error = Arc::new(Mutex::new(None));
        let flusher = Flusher {
            dir: dir.to_path_buf(),
            cfg,
            current,
            pending: 0,
            last_sync: Instant::now(),
            counters: Arc::clone(&counters),
            error: Arc::clone(&error),
        };
        let (tx, rx) = channel();
        let thread = std::thread::Builder::new()
            .name("curb-wal-flusher".into())
            .spawn(move || flusher.run(rx))
            .expect("spawn wal flusher thread");
        Ok(Wal {
            tx,
            thread: Some(thread),
            counters,
            error,
        })
    }

    /// Appends one record. Non-blocking: the bytes are framed here and
    /// handed to the flusher thread, which batches the fsync. Sequence
    /// numbers must be strictly increasing across the log's lifetime.
    pub fn append(&self, seq: u64, bytes: &[u8]) {
        let mut framed = Vec::with_capacity(RECORD_HEADER + bytes.len());
        encode_record(&mut framed, seq, bytes);
        let _ = self.tx.send(FlushCmd::Append { seq, framed });
    }

    /// Durability barrier: blocks until everything appended so far is
    /// written and fsynced.
    ///
    /// # Errors
    ///
    /// Surfaces the first I/O error the flusher hit, if any.
    pub fn sync(&self) -> io::Result<()> {
        let (ack_tx, ack_rx) = std::sync::mpsc::sync_channel(1);
        if self.tx.send(FlushCmd::Sync(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
        match &*self.error.lock().unwrap_or_else(|p| p.into_inner()) {
            Some(msg) => Err(io::Error::other(msg.clone())),
            None => Ok(()),
        }
    }

    /// A live snapshot of the flusher's counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.counters.records.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            fsyncs: self.counters.fsyncs.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let _ = self.tx.send(FlushCmd::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("curb-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32_update(crc32(b"1234"), b"56789"),
            0xCBF4_3926,
            "chained updates equal one pass"
        );
    }

    #[test]
    fn records_roundtrip_and_survive_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let (wal, replay) = Wal::open(&dir, WalConfig::default()).unwrap();
            assert!(replay.is_empty());
            for seq in 1..=20u64 {
                wal.append(seq, format!("block-{seq}").as_bytes());
            }
            wal.sync().unwrap();
            let stats = wal.stats();
            assert_eq!(stats.records, 20);
            assert!(stats.fsyncs >= 1);
            assert!(
                stats.fsyncs < 20,
                "fsyncs are batched, got {}",
                stats.fsyncs
            );
        }
        let (_wal, replay) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(replay.len(), 20);
        assert_eq!(replay[0].seq, 1);
        assert_eq!(replay[19].bytes, b"block-20");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        {
            let (wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
            for seq in 1..=5u64 {
                wal.append(seq, &[seq as u8; 50]);
            }
            wal.sync().unwrap();
        }
        // Tear the tail mid-record.
        let seg = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 30)
            .unwrap();
        let (wal, replay) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(replay.len(), 4, "torn record 5 dropped, prefix intact");
        // The log keeps working after recovery.
        wal.append(5, b"rewritten");
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(replay.len(), 5);
        assert_eq!(replay[4].bytes, b"rewritten");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc_corruption_is_detected() {
        let mut framed = Vec::new();
        encode_record(&mut framed, 7, b"payload");
        // Flip one body byte; the record must not decode.
        let mut corrupt = framed.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        let (records, valid) = decode_records(&corrupt);
        assert!(records.is_empty());
        assert_eq!(valid, 0);
        // The pristine copy does.
        let (records, valid) = decode_records(&framed);
        assert_eq!(records.len(), 1);
        assert_eq!(valid, framed.len());
    }

    #[test]
    fn segments_roll_and_replay_in_order() {
        let dir = temp_dir("roll");
        let cfg = WalConfig {
            segment_bytes: 256, // tiny: force frequent rolls
            ..WalConfig::default()
        };
        let (wal, _) = Wal::open(&dir, cfg.clone()).unwrap();
        for seq in 1..=40u64 {
            wal.append(seq, &[0xAB; 40]);
        }
        wal.sync().unwrap();
        let segments = fs::read_dir(&dir).unwrap().count();
        assert!(segments > 2, "rolling produced {segments} segments");
        // The read-only scan sees what a reopen will, and touches nothing.
        let mut seqs = Vec::new();
        replay(&dir, |r| {
            seqs.push(r.seq);
            Ok(())
        })
        .unwrap();
        assert_eq!(seqs, (1..=40).collect::<Vec<u64>>());
        drop(wal);
        let (_, reopened) = Wal::open(&dir, cfg).unwrap();
        assert_eq!(reopened.iter().map(|r| r.seq).collect::<Vec<_>>(), seqs);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), segments);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decoder_matches_oracle_for_any_chunking() {
        let mut stream = Vec::new();
        for seq in 1..=12u64 {
            encode_record(&mut stream, seq, &vec![seq as u8; (seq * 7 % 40) as usize]);
        }
        let (oracle, _) = decode_records(&stream);
        for chunk in [1usize, 3, 7, 16, stream.len()] {
            let mut decoder = WalDecoder::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                assert!(decoder.feed(piece, |r| got.push(r)));
            }
            assert_eq!(got, oracle, "chunk size {chunk}");
            assert!(decoder.is_aligned());
        }
    }
}
