//! Warm-standby replication: WAL streaming over a length-prefixed,
//! CRC-guarded TCP protocol.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     payload length N (u32)
//! 4       8     FNV-1a 64 checksum of type ‖ payload (u64)
//! 12      1     frame type (u8)
//! 13      N     payload
//! ```
//!
//! Frame types and payloads:
//!
//! | type | name      | payload                          | direction          |
//! |------|-----------|----------------------------------|--------------------|
//! | 1    | HELLO     | `last_applied` (u64)             | standby → primary  |
//! | 2    | SNAPSHOT  | `seq` (u64) ‖ state bytes        | primary → standby  |
//! | 3    | RECORD    | `seq` (u64) ‖ `kind` (u8) ‖ data | primary → standby  |
//! | 4    | HEARTBEAT | `head_seq` (u64)                 | primary → standby  |
//! | 5    | ACK       | `seq` (u64)                      | standby → primary  |
//!
//! The protocol is a cursor chase: the standby opens with HELLO carrying
//! the last seq it durably applied, and the primary streams RECORD
//! frames from there (or one SNAPSHOT when compaction has dropped the
//! cursor), interleaving HEARTBEATs when idle. Corruption anywhere —
//! torn frame, flipped bit, garbage type — fails the checksum or parse,
//! and the *connection* is the recovery unit: either side drops it, the
//! standby reconnects with jittered exponential backoff
//! ([`cardest_core::backoff`]) and a fresh HELLO, and the stream resumes
//! exactly where durable application stopped. Duplicate delivery is
//! harmless by construction ([`DurableIngest::apply_replicated`] skips
//! seqs at or below the last applied), so at-least-once transport gives
//! exactly-once application.
//!
//! The primary never blocks inserts on a standby: sessions run on their
//! own threads, read the WAL from disk under the same store lock inserts
//! use (bounded batches), and a slow or dead standby just accumulates
//! lag, which [`PrimaryReplStats`] reports.

use crate::ingest::{DurableIngest, InsertReceipt, ReplicatedApply, ReplicationFetch, StoreError};
use crate::wal::WalRecord;
use cardest_core::backoff::{clamp_to_deadline, Backoff, BackoffConfig};
use cardest_core::clock;
use cardest_nn::artifact::fnv1a64;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Fixed frame header size: length (4) + checksum (8) + type (1).
pub const FRAME_HEADER_LEN: usize = 13;

/// Upper bound on a frame payload (snapshots are the big ones).
pub const MAX_FRAME_PAYLOAD: usize = 256 << 20;

const TYPE_HELLO: u8 = 1;
const TYPE_SNAPSHOT: u8 = 2;
const TYPE_RECORD: u8 = 3;
const TYPE_HEARTBEAT: u8 = 4;
const TYPE_ACK: u8 = 5;

/// One replication protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Standby's opener: the last seq it durably applied.
    Hello { last_applied: u64 },
    /// Full state as of `seq` — bootstrap after compaction.
    Snapshot { seq: u64, state: Vec<u8> },
    /// One WAL record.
    Record(WalRecord),
    /// Primary liveness + current head while the stream is idle.
    Heartbeat { head_seq: u64 },
    /// Standby progress: everything through `seq` is durably applied.
    Ack { seq: u64 },
}

/// Why a frame failed to decode. Every variant means the byte stream is
/// unusable from here on — the connection must be dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize { len: usize },
    /// Checksum over type ‖ payload does not match.
    BadCrc,
    /// Valid checksum but an unassigned frame type.
    UnknownType { ty: u8 },
    /// Valid checksum but the payload does not parse for its type.
    BadPayload { ty: u8, len: usize },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize { len } => write!(f, "frame payload length {len} oversize"),
            FrameError::BadCrc => write!(f, "frame checksum mismatch"),
            FrameError::UnknownType { ty } => write!(f, "unknown frame type {ty}"),
            FrameError::BadPayload { ty, len } => {
                write!(f, "frame type {ty} with unparseable {len}-byte payload")
            }
        }
    }
}

impl std::error::Error for FrameError {}

fn frame_crc(ty: u8, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(1 + payload.len());
    buf.push(ty);
    buf.extend_from_slice(payload);
    fnv1a64(&buf)
}

fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    let b = bytes.get(at..at + 8)?;
    Some(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Encodes one frame in the layout described at module level.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let (ty, payload): (u8, Vec<u8>) = match frame {
        Frame::Hello { last_applied } => (TYPE_HELLO, last_applied.to_le_bytes().to_vec()),
        Frame::Snapshot { seq, state } => {
            let mut p = Vec::with_capacity(8 + state.len());
            p.extend_from_slice(&seq.to_le_bytes());
            p.extend_from_slice(state);
            (TYPE_SNAPSHOT, p)
        }
        Frame::Record(r) => {
            let mut p = Vec::with_capacity(9 + r.payload.len());
            p.extend_from_slice(&r.seq.to_le_bytes());
            p.push(r.kind);
            p.extend_from_slice(&r.payload);
            (TYPE_RECORD, p)
        }
        Frame::Heartbeat { head_seq } => (TYPE_HEARTBEAT, head_seq.to_le_bytes().to_vec()),
        Frame::Ack { seq } => (TYPE_ACK, seq.to_le_bytes().to_vec()),
    };
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_crc(ty, &payload).to_le_bytes());
    out.push(ty);
    out.extend_from_slice(&payload);
    out
}

/// Attempts to decode one frame from the front of `buf`. Pure — the
/// frame-codec proptests drive it directly.
///
/// * `Ok(None)` — the buffer holds a valid prefix of a frame; read more.
/// * `Ok(Some((frame, consumed)))` — one complete valid frame.
/// * `Err(_)` — the stream is corrupt; drop the connection.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let plen = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if plen > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversize { len: plen });
    }
    let total = FRAME_HEADER_LEN + plen;
    if buf.len() < total {
        return Ok(None);
    }
    let crc = u64_at(buf, 4).unwrap_or(0);
    let ty = buf[12];
    let payload = &buf[FRAME_HEADER_LEN..total];
    if frame_crc(ty, payload) != crc {
        return Err(FrameError::BadCrc);
    }
    let bad = || FrameError::BadPayload { ty, len: plen };
    let frame = match ty {
        TYPE_HELLO => {
            if plen != 8 {
                return Err(bad());
            }
            Frame::Hello {
                last_applied: u64_at(payload, 0).ok_or_else(bad)?,
            }
        }
        TYPE_SNAPSHOT => Frame::Snapshot {
            seq: u64_at(payload, 0).ok_or_else(bad)?,
            state: payload[8..].to_vec(),
        },
        TYPE_RECORD => {
            if plen < 9 {
                return Err(bad());
            }
            Frame::Record(WalRecord {
                seq: u64_at(payload, 0).ok_or_else(bad)?,
                kind: payload[8],
                payload: payload[9..].to_vec(),
            })
        }
        TYPE_HEARTBEAT => {
            if plen != 8 {
                return Err(bad());
            }
            Frame::Heartbeat {
                head_seq: u64_at(payload, 0).ok_or_else(bad)?,
            }
        }
        TYPE_ACK => {
            if plen != 8 {
                return Err(bad());
            }
            Frame::Ack {
                seq: u64_at(payload, 0).ok_or_else(bad)?,
            }
        }
        other => return Err(FrameError::UnknownType { ty: other }),
    };
    Ok(Some((frame, total)))
}

/// What a primary exposes to replication sessions.
pub trait ReplicaSource: Send + Sync {
    /// Seq of the last durable record.
    fn head_seq(&self) -> u64;
    /// Records after `after_seq` (bounded), or a snapshot once compacted.
    fn fetch_since(&self, after_seq: u64, max: usize) -> Result<ReplicationFetch, StoreError>;
    /// Blocks until the head moves past `after_seq` or `timeout` elapses;
    /// returns the current head either way.
    fn wait_growth(&self, after_seq: u64, timeout: Duration) -> u64;
}

/// What a standby exposes to its replication client.
pub trait StandbyTarget: Send + Sync {
    /// Seq of the last durably applied record.
    fn last_applied(&self) -> u64;
    /// Applies one streamed record (idempotent on duplicates).
    fn apply(&self, rec: &WalRecord) -> Result<ReplicatedApply, StoreError>;
    /// Replaces local state with the primary's snapshot at `seq`.
    fn install_snapshot(&self, seq: u64, state: &[u8]) -> Result<(), StoreError>;
}

/// A [`DurableIngest`] shared across threads with growth signalling —
/// implements both replication roles, so store-level tests and the bench
/// can stand up a primary/standby pair without the HTTP server.
pub struct SharedStore {
    inner: Mutex<DurableIngest>,
    grew: Condvar,
}

impl SharedStore {
    pub fn new(store: DurableIngest) -> Arc<Self> {
        Arc::new(SharedStore {
            inner: Mutex::new(store),
            grew: Condvar::new(),
        })
    }

    /// Runs `f` under the store lock and signals waiters afterwards (any
    /// mutation may have grown the stream).
    pub fn with<R>(&self, f: impl FnOnce(&mut DurableIngest) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let r = f(&mut guard);
        drop(guard);
        self.grew.notify_all();
        r
    }

    /// Durably inserts one dense point and wakes replication sessions.
    pub fn insert_dense(&self, point: &[f32]) -> Result<InsertReceipt, StoreError> {
        self.with(|s| s.insert_dense(point))
    }

    /// State fingerprint (bit-identity assertions in tests).
    pub fn fingerprint(&self) -> Result<u64, StoreError> {
        self.with(|s| s.fingerprint())
    }
}

impl ReplicaSource for SharedStore {
    fn head_seq(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .last_seq()
    }

    fn fetch_since(&self, after_seq: u64, max: usize) -> Result<ReplicationFetch, StoreError> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .replication_fetch(after_seq, max)
    }

    fn wait_growth(&self, after_seq: u64, timeout: Duration) -> u64 {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if guard.last_seq() > after_seq {
            return guard.last_seq();
        }
        let (guard, _) = self
            .grew
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.last_seq()
    }
}

impl StandbyTarget for SharedStore {
    fn last_applied(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .last_seq()
    }

    fn apply(&self, rec: &WalRecord) -> Result<ReplicatedApply, StoreError> {
        self.with(|s| s.apply_replicated(rec))
    }

    fn install_snapshot(&self, seq: u64, state: &[u8]) -> Result<(), StoreError> {
        self.with(|s| s.install_snapshot(seq, state))
    }
}

/// Primary-side replication knobs.
#[derive(Debug, Clone, Copy)]
pub struct ListenerConfig {
    /// Heartbeat cadence while the stream is idle.
    pub heartbeat_every: Duration,
    /// Records per fetch batch.
    pub batch_max: usize,
    /// Read timeout used to poll for acks / socket deadline per op.
    pub ack_poll: Duration,
    /// Patience for the standby's HELLO before dropping the connection.
    pub hello_deadline: Duration,
}

impl Default for ListenerConfig {
    fn default() -> Self {
        ListenerConfig {
            heartbeat_every: Duration::from_millis(500),
            batch_max: 256,
            ack_poll: Duration::from_millis(25),
            hello_deadline: Duration::from_secs(10),
        }
    }
}

/// Primary-side replication counters, shared with `/stats`.
#[derive(Debug, Default)]
pub struct PrimaryReplStats {
    /// Sessions accepted over the listener's lifetime.
    pub sessions: AtomicU64,
    /// Sessions currently streaming.
    pub active: AtomicU64,
    /// Highest seq any standby has acked.
    pub last_acked: AtomicU64,
    /// RECORD frames sent.
    pub records_sent: AtomicU64,
    /// SNAPSHOT frames sent (bootstrap / post-compaction resync).
    pub snapshots_sent: AtomicU64,
}

impl PrimaryReplStats {
    /// Records the best-connected standby still trails by (0 when caught
    /// up or when no standby has ever acked).
    pub fn lag(&self, head_seq: u64) -> u64 {
        head_seq.saturating_sub(self.last_acked.load(Ordering::Relaxed))
    }
}

/// The primary's replication endpoint: accepts standby connections and
/// streams the WAL to each on its own thread.
pub struct ReplicationListener {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<PrimaryReplStats>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl ReplicationListener {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts accepting standbys.
    pub fn start(
        addr: &str,
        source: Arc<dyn ReplicaSource>,
        cfg: ListenerConfig,
    ) -> Result<Self, StoreError> {
        let listener = TcpListener::bind(addr).map_err(|e| StoreError::Io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| StoreError::Io(e.to_string()))?;
        let local = listener
            .local_addr()
            .map_err(|e| StoreError::Io(e.to_string()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(PrimaryReplStats::default());
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stats.sessions.fetch_add(1, Ordering::Relaxed);
                            if let Ok(clone) = stream.try_clone() {
                                conns
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push(clone);
                            }
                            let source = Arc::clone(&source);
                            let stats = Arc::clone(&stats);
                            let stop = Arc::clone(&stop);
                            std::thread::spawn(move || {
                                stats.active.fetch_add(1, Ordering::Relaxed);
                                let _ = serve_session(stream, &*source, &stats, &stop, cfg);
                                stats.active.fetch_sub(1, Ordering::Relaxed);
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(ReplicationListener {
            addr: local,
            stop,
            stats,
            accept_thread: Some(accept_thread),
            conns,
        })
    }

    /// The bound address standbys should dial.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Shared counters for `/stats` and tests.
    pub fn stats(&self) -> Arc<PrimaryReplStats> {
        Arc::clone(&self.stats)
    }

    /// Stops accepting, severs live sessions, and joins the acceptor.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for conn in self
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplicationListener {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Outcome of one blocking poll for a frame.
enum Poll {
    Frame(Frame),
    /// Read timed out — no bytes this interval.
    Idle,
    /// Peer closed or the socket failed.
    Closed,
}

/// Reads frames off a socket through a reassembly buffer.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameReader {
    fn new(stream: TcpStream) -> Self {
        FrameReader {
            stream,
            buf: Vec::new(),
        }
    }

    /// Decodes the next frame, reading at most one socket chunk if the
    /// buffer doesn't already hold one. Corruption is an `Err`.
    fn poll(&mut self) -> Result<Poll, FrameError> {
        loop {
            if let Some((frame, consumed)) = decode_frame(&self.buf)? {
                self.buf.drain(..consumed);
                return Ok(Poll::Frame(frame));
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Poll::Closed),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(Poll::Idle)
                }
                Err(_) => return Ok(Poll::Closed),
            }
        }
    }
}

/// One primary-side session: HELLO, then chase the standby's cursor.
fn serve_session(
    stream: TcpStream,
    source: &dyn ReplicaSource,
    stats: &PrimaryReplStats,
    stop: &AtomicBool,
    cfg: ListenerConfig,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(cfg.ack_poll))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = FrameReader::new(stream);

    // Wait for HELLO within the deadline; anything else is a bad client.
    let hello_deadline = clock::now() + cfg.hello_deadline;
    let mut cursor = loop {
        if stop.load(Ordering::Relaxed) || clock::now() >= hello_deadline {
            return Ok(());
        }
        match reader.poll() {
            Ok(Poll::Frame(Frame::Hello { last_applied })) => break last_applied,
            Ok(Poll::Idle) => continue,
            _ => return Ok(()),
        }
    };

    let mut last_heartbeat = clock::now();
    while !stop.load(Ordering::Relaxed) {
        let head = source.head_seq();
        if cursor < head {
            match source.fetch_since(cursor, cfg.batch_max) {
                Ok(ReplicationFetch::Records(records)) if !records.is_empty() => {
                    for r in &records {
                        writer.write_all(&encode_frame(&Frame::Record(r.clone())))?;
                        cursor = r.seq;
                        stats.records_sent.fetch_add(1, Ordering::Relaxed);
                    }
                    writer.flush()?;
                }
                Ok(ReplicationFetch::Snapshot { seq, state }) => {
                    writer.write_all(&encode_frame(&Frame::Snapshot { seq, state }))?;
                    writer.flush()?;
                    cursor = seq;
                    stats.snapshots_sent.fetch_add(1, Ordering::Relaxed);
                }
                // Empty batch (records raced a compaction) or store error:
                // re-evaluate on the next turn of the loop.
                Ok(ReplicationFetch::Records(_)) => {}
                Err(_) => return Ok(()),
            }
        } else if clock::now().duration_since(last_heartbeat) >= cfg.heartbeat_every {
            writer.write_all(&encode_frame(&Frame::Heartbeat { head_seq: head }))?;
            writer.flush()?;
            last_heartbeat = clock::now();
        }

        // One bounded poll for acks; doubles as pacing when idle.
        match reader.poll() {
            Ok(Poll::Frame(Frame::Ack { seq })) => {
                stats.last_acked.fetch_max(seq, Ordering::Relaxed);
            }
            Ok(Poll::Idle) => {
                if cursor >= head {
                    source.wait_growth(cursor, cfg.ack_poll);
                }
            }
            // Corrupt inbound stream or an out-of-protocol frame: drop
            // the session; the standby reconnects and resumes.
            _ => return Ok(()),
        }
    }
    Ok(())
}

/// Standby-side replication knobs.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaClientConfig {
    /// Per-connect deadline.
    pub connect_timeout: Duration,
    /// Per-read deadline (also the cadence of ack/stop checks).
    pub read_timeout: Duration,
    /// Per-write deadline.
    pub write_timeout: Duration,
    /// Reconnect backoff shape.
    pub backoff: BackoffConfig,
    /// Seed for the jitter stream (deterministic in tests).
    pub seed: u64,
    /// Applied records between progress acks (acks also flush on
    /// heartbeats and idle ticks).
    pub ack_every: u64,
}

impl Default for ReplicaClientConfig {
    fn default() -> Self {
        ReplicaClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(5),
            backoff: BackoffConfig {
                base: Duration::from_millis(50),
                max: Duration::from_secs(2),
                jitter: 0.5,
                max_attempts: 0,
            },
            seed: 0x5EED_0CA1,
            ack_every: 32,
        }
    }
}

/// Standby-side replication counters, shared with `/stats` and `/ready`.
#[derive(Debug, Default)]
pub struct ReplicaStatus {
    /// A session is currently established.
    pub connected: AtomicBool,
    /// Last seq durably applied locally.
    pub last_applied: AtomicU64,
    /// Primary's head as last advertised (records or heartbeats).
    pub primary_head: AtomicU64,
    /// RECORD frames applied.
    pub records_applied: AtomicU64,
    /// SNAPSHOT frames installed.
    pub snapshots_installed: AtomicU64,
    /// Sessions re-established after a drop.
    pub reconnects: AtomicU64,
    /// Sessions dropped on a corrupt frame.
    pub corrupt_frames: AtomicU64,
    /// Duplicate record deliveries skipped.
    pub duplicates_skipped: AtomicU64,
}

impl ReplicaStatus {
    /// Records the standby still trails the primary by.
    pub fn lag(&self) -> u64 {
        self.primary_head
            .load(Ordering::Relaxed)
            .saturating_sub(self.last_applied.load(Ordering::Relaxed))
    }
}

/// The standby's replication client: one background thread that dials
/// the primary, applies the stream, and reconnects with backoff forever
/// (or until the attempt budget in its config runs out).
pub struct ReplicaClient {
    status: Arc<ReplicaStatus>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReplicaClient {
    /// Starts replicating from `primary_addr` into `target`.
    pub fn start(
        primary_addr: String,
        target: Arc<dyn StandbyTarget>,
        cfg: ReplicaClientConfig,
    ) -> ReplicaClient {
        let status = Arc::new(ReplicaStatus::default());
        status
            .last_applied
            .store(target.last_applied(), Ordering::Relaxed);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let status = Arc::clone(&status);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || client_loop(&primary_addr, &*target, &status, &stop, cfg))
        };
        ReplicaClient {
            status,
            stop,
            thread: Some(thread),
        }
    }

    /// Live counters (role/lag reporting, readiness checks).
    pub fn status(&self) -> Arc<ReplicaStatus> {
        Arc::clone(&self.status)
    }

    /// Stops the client and joins its thread (used by promote).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.status.connected.store(false, Ordering::Relaxed);
    }
}

impl Drop for ReplicaClient {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sleeps `delay` in stop-aware slices, each clamped to the remaining
/// deadline so a stop request is honored within ~50ms.
fn sleep_interruptible(delay: Duration, stop: &AtomicBool) {
    let deadline = clock::now() + delay;
    while !stop.load(Ordering::Relaxed) {
        let remaining = deadline.saturating_duration_since(clock::now());
        if remaining.is_zero() {
            return;
        }
        std::thread::sleep(clamp_to_deadline(Duration::from_millis(50), remaining));
    }
}

fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last_err = None;
    for sockaddr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sockaddr, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses resolved")
    }))
}

fn client_loop(
    addr: &str,
    target: &dyn StandbyTarget,
    status: &ReplicaStatus,
    stop: &AtomicBool,
    cfg: ReplicaClientConfig,
) {
    let mut backoff = Backoff::new(cfg.backoff, cfg.seed);
    let mut had_session = false;
    while !stop.load(Ordering::Relaxed) {
        match run_session(addr, target, status, stop, cfg) {
            SessionEnd::Established => {
                if had_session {
                    status.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                had_session = true;
                // Progress was made; the next failure backs off from base.
                backoff.reset();
            }
            SessionEnd::NoProgress => {}
            SessionEnd::Stopped => return,
        }
        status.connected.store(false, Ordering::Relaxed);
        match backoff.next_delay() {
            Some(delay) => sleep_interruptible(delay, stop),
            // Attempt budget exhausted: stay up serving reads, stop dialing.
            None => return,
        }
    }
}

enum SessionEnd {
    /// The session applied at least one frame before dropping.
    Established,
    /// Never got as far as a single applied frame.
    NoProgress,
    /// Stop was requested.
    Stopped,
}

fn run_session(
    addr: &str,
    target: &dyn StandbyTarget,
    status: &ReplicaStatus,
    stop: &AtomicBool,
    cfg: ReplicaClientConfig,
) -> SessionEnd {
    let Ok(stream) = connect(addr, cfg.connect_timeout) else {
        return SessionEnd::NoProgress;
    };
    if stream.set_read_timeout(Some(cfg.read_timeout)).is_err()
        || stream.set_write_timeout(Some(cfg.write_timeout)).is_err()
    {
        return SessionEnd::NoProgress;
    }
    stream.set_nodelay(true).ok();
    let Ok(mut writer) = stream.try_clone() else {
        return SessionEnd::NoProgress;
    };
    let mut reader = FrameReader::new(stream);

    let mut last_applied = target.last_applied();
    status.last_applied.store(last_applied, Ordering::Relaxed);
    if writer
        .write_all(&encode_frame(&Frame::Hello { last_applied }))
        .is_err()
    {
        return SessionEnd::NoProgress;
    }
    status.connected.store(true, Ordering::Relaxed);

    let mut progressed = false;
    let mut last_acked = last_applied;
    let mut since_ack = 0u64;
    loop {
        if stop.load(Ordering::Relaxed) {
            return SessionEnd::Stopped;
        }
        let end = |p| {
            if p {
                SessionEnd::Established
            } else {
                SessionEnd::NoProgress
            }
        };
        match reader.poll() {
            Ok(Poll::Frame(Frame::Record(rec))) => {
                status.primary_head.fetch_max(rec.seq, Ordering::Relaxed);
                match target.apply(&rec) {
                    Ok(ReplicatedApply::Applied) => {
                        last_applied = rec.seq;
                        status.last_applied.store(last_applied, Ordering::Relaxed);
                        status.records_applied.fetch_add(1, Ordering::Relaxed);
                        progressed = true;
                        since_ack += 1;
                    }
                    Ok(ReplicatedApply::Skipped) => {
                        status.duplicates_skipped.fetch_add(1, Ordering::Relaxed);
                    }
                    // Gap (we missed frames) or apply failure: resync via
                    // a fresh session's HELLO.
                    Err(_) => return end(progressed),
                }
            }
            Ok(Poll::Frame(Frame::Snapshot { seq, state })) => {
                if seq > last_applied {
                    if target.install_snapshot(seq, &state).is_err() {
                        return end(progressed);
                    }
                    last_applied = seq;
                    status.last_applied.store(seq, Ordering::Relaxed);
                    status.primary_head.fetch_max(seq, Ordering::Relaxed);
                    status.snapshots_installed.fetch_add(1, Ordering::Relaxed);
                    progressed = true;
                    since_ack += 1;
                }
            }
            Ok(Poll::Frame(Frame::Heartbeat { head_seq })) => {
                status.primary_head.fetch_max(head_seq, Ordering::Relaxed);
                // Heartbeats flush progress so the primary's lag is live.
                since_ack = cfg.ack_every;
            }
            // HELLO/ACK from a primary is out of protocol.
            Ok(Poll::Frame(_)) => return end(progressed),
            Ok(Poll::Idle) => {
                if last_applied > last_acked {
                    since_ack = cfg.ack_every;
                }
            }
            Ok(Poll::Closed) => return end(progressed),
            Err(_) => {
                status.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                return end(progressed);
            }
        }
        if since_ack >= cfg.ack_every && last_applied > last_acked {
            if writer
                .write_all(&encode_frame(&Frame::Ack { seq: last_applied }))
                .is_err()
            {
                return end(progressed);
            }
            last_acked = last_applied;
            since_ack = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_frame_kind_round_trips() {
        let frames = vec![
            Frame::Hello { last_applied: 0 },
            Frame::Hello {
                last_applied: u64::MAX,
            },
            Frame::Snapshot {
                seq: 7,
                state: b"{\"gl\":1}".to_vec(),
            },
            Frame::Snapshot {
                seq: 0,
                state: Vec::new(),
            },
            Frame::Record(WalRecord {
                seq: 42,
                kind: 3,
                payload: vec![1, 2, 3, 4],
            }),
            Frame::Record(WalRecord {
                seq: 1,
                kind: 0,
                payload: Vec::new(),
            }),
            Frame::Heartbeat { head_seq: 99 },
            Frame::Ack { seq: 12 },
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            let (decoded, consumed) = decode_frame(&bytes).unwrap().unwrap();
            assert_eq!(decoded, f);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn torn_prefixes_ask_for_more_bytes() {
        let bytes = encode_frame(&Frame::Heartbeat { head_seq: 5 });
        for keep in 0..bytes.len() {
            assert_eq!(decode_frame(&bytes[..keep]).unwrap(), None, "at {keep}");
        }
    }

    #[test]
    fn two_frames_decode_in_sequence() {
        let mut bytes = encode_frame(&Frame::Ack { seq: 1 });
        let second = encode_frame(&Frame::Heartbeat { head_seq: 9 });
        bytes.extend_from_slice(&second);
        let (f1, c1) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(f1, Frame::Ack { seq: 1 });
        let (f2, c2) = decode_frame(&bytes[c1..]).unwrap().unwrap();
        assert_eq!(f2, Frame::Heartbeat { head_seq: 9 });
        assert_eq!(c1 + c2, bytes.len());
    }

    #[test]
    fn corruption_is_rejected_not_misread() {
        let bytes = encode_frame(&Frame::Record(WalRecord {
            seq: 3,
            kind: 1,
            payload: vec![9; 32],
        }));
        // Flip one bit everywhere past the length field: must error (the
        // length field itself is covered by the reframing argument — a
        // changed length either overshoots, starves, or fails the CRC).
        for at in 4..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(
                decode_frame(&bad).is_err() || decode_frame(&bad).unwrap().is_none(),
                "flip at {at} decoded as a valid frame"
            );
        }
        // Unknown type with a correct checksum is still rejected.
        let mut p = Vec::new();
        p.extend_from_slice(&(0u32).to_le_bytes());
        p.extend_from_slice(&frame_crc(77, &[]).to_le_bytes());
        p.push(77);
        assert_eq!(decode_frame(&p), Err(FrameError::UnknownType { ty: 77 }));
    }

    #[test]
    fn oversize_length_is_rejected_immediately() {
        let mut bytes = encode_frame(&Frame::Ack { seq: 1 });
        bytes[3] = 0xFF; // declared length becomes > MAX_FRAME_PAYLOAD
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Oversize { .. })
        ));
    }

    #[test]
    fn short_typed_payloads_are_bad_payload_not_panic() {
        // An ACK must carry exactly 8 bytes; craft one with 3.
        let payload = [1u8, 2, 3];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&frame_crc(TYPE_ACK, &payload).to_le_bytes());
        bytes.push(TYPE_ACK);
        bytes.extend_from_slice(&payload);
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::BadPayload {
                ty: TYPE_ACK,
                len: 3
            })
        );
    }
}
