//! The **threaded** TCP transport: length-prefixed page frames over real
//! sockets, one writer thread per connection.
//!
//! The server binds a loopback listener; an accept thread hands new
//! connections to the engine thread, which registers each one with a
//! bounded send buffer drained by a per-connection writer thread. A client
//! whose buffer fills is a slow consumer: depending on the configured
//! [`Backpressure`] its newest frames are dropped or it is disconnected
//! (blocking the whole broadcast on one slow socket is not offered here —
//! that is what [`crate::InMemoryBus`] with [`Backpressure::Block`] is for).
//!
//! The hot path is zero-copy on the server side: each slot's wire frame is
//! encoded **once** into a shared `Arc<[u8]>` and every connection's send
//! buffer holds a refcount to the same bytes. A writer that wakes up to a
//! backlog drains up to [`TcpTransportConfig::max_coalesce`] buffers and
//! pushes them with one vectored write instead of one syscall per frame.
//!
//! Thread lifecycle: `finish()` (also run on drop) closes every
//! connection's send channel, **joins** each writer thread and the accept
//! thread, and returns only when all of them have exited. Writer sockets
//! carry a bounded [`TcpTransportConfig::write_timeout`] so a join can
//! never hang on a peer that stopped reading mid-write — a stalled socket
//! errors out of its blocking write within the timeout and the writer
//! exits (the slow consumer is disconnected, which is the same fate
//! [`Backpressure`] would hand it).
//!
//! This implementation tops out around a few hundred connections (one OS
//! thread each); it is kept as the **reference implementation** the
//! event-loop transport ([`crate::EventedTcpTransport`]) is differentially
//! tested against — `tests/evented_equivalence.rs` pins the two to
//! bit-identical delivered streams.

use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bdisk_obs::journal::{event, EventKind};
use bdisk_sched::PageId;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use mini_mio::{Events, Interest, Poll, Token};

use crate::faults::{
    encode_corrupted, FaultCounts, FaultPlan, FaultSwitchboard, InjectedFrame, SplitMix,
};
use crate::transport::{Backpressure, DeliveryStats, Frame, FrameError, PullRequest, Transport};
use crate::upstream::{encode_request, UpstreamParser};

/// TCP transport tuning knobs.
#[derive(Debug, Clone)]
pub struct TcpTransportConfig {
    /// Frames buffered per connection before backpressure applies.
    pub queue_capacity: usize,
    /// Slow-consumer policy ([`Backpressure::Block`] is rejected at bind).
    pub backpressure: Backpressure,
    /// Most backlog frames a writer folds into one vectored write.
    pub max_coalesce: usize,
    /// Upper bound on one blocking socket write (`SO_SNDTIMEO`). A peer
    /// that stops reading while its kernel buffer is full would otherwise
    /// block its writer thread indefinitely — and block `finish()`'s join
    /// with it. On timeout the write errors, the writer exits, and the
    /// stalled client is disconnected. `None` disables the bound (not
    /// recommended; shutdown promptness then depends on every peer).
    pub write_timeout: Option<Duration>,
}

impl Default for TcpTransportConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            backpressure: Backpressure::DropNewest,
            max_coalesce: 64,
            write_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Writes every buffer in order, coalescing them into vectored writes and
/// resuming correctly across partial writes.
fn write_coalesced<W: Write>(w: &mut W, bufs: &[Arc<[u8]>]) -> io::Result<()> {
    if let [single] = bufs {
        return w.write_all(single);
    }
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    let mut written = 0usize;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(bufs.len());
    while written < total {
        // Rebuild the slice list past what has already gone out; partial
        // writes are rare so the rebuild is off the common path.
        slices.clear();
        let mut skip = written;
        for buf in bufs {
            if skip >= buf.len() {
                skip -= buf.len();
                continue;
            }
            slices.push(IoSlice::new(&buf[skip..]));
            skip = 0;
        }
        let n = w.write_vectored(&slices)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "socket write returned zero",
            ));
        }
        written += n;
    }
    Ok(())
}

struct Conn {
    /// Stable id (accept order) — fault plans key per-client kills on it.
    id: u64,
    tx: Sender<Arc<[u8]>>,
    writer: JoinHandle<()>,
    /// A `try_clone` of the socket for the upstream direction. The
    /// original moved into the writer thread; this clone shares the open
    /// file description, so it stays **blocking** (`O_NONBLOCK` is shared
    /// and flipping it would break the blocking writer). Reads happen
    /// only on epoll readiness, where a single read cannot block.
    reader: Option<TcpStream>,
    /// `reader` is currently registered with the request poll.
    registered: bool,
    /// Reassembles this connection's upstream bytes into pull requests.
    upstream: UpstreamParser,
}

/// Upper bound on one wire frame's body length. The length prefix is
/// attacker-visible plaintext (it sits outside the CRC-protected body), so
/// a reader must never trust it as an allocation size: a single forged
/// 32-bit prefix could otherwise demand a 4 GiB buffer. Real frames are a
/// 22-byte header plus one page or repair symbol, so 16 MiB is generous
/// headroom for any plausible page size while keeping a hostile prefix
/// harmless.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Broadcast server over loopback TCP.
pub struct TcpTransport {
    addr: SocketAddr,
    cfg: TcpTransportConfig,
    incoming: Receiver<TcpStream>,
    conns: Vec<Conn>,
    next_conn_id: u64,
    /// Writers of evicted connections, joined at finish.
    graveyard: Vec<JoinHandle<()>>,
    /// Readiness poll over connection reader clones, created on the first
    /// `take_requests` call (push-only runs never pay for it).
    req_poll: Option<Poll>,
    /// Reusable event buffer for `req_poll`.
    req_events: Events,
    /// Reusable buffer for draining upstream bytes.
    req_scratch: Box<[u8]>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Per-channel fault choke points (default plan + overrides).
    faults: FaultSwitchboard,
    /// Per-channel fan-out counters, cached off the registry.
    channel_frames: crate::obs::ChannelCounters,
    /// Encoded greeting frame enqueued to every new connection before any
    /// broadcast traffic (the epoch hello fence).
    hello: Option<Arc<[u8]>>,
}

impl TcpTransport {
    /// Binds `127.0.0.1:0` and starts accepting connections.
    pub fn bind(cfg: TcpTransportConfig) -> io::Result<Self> {
        assert!(
            cfg.backpressure != Backpressure::Block,
            "TCP transport cannot block the broadcast on one socket; \
             use DropNewest or Disconnect"
        );
        assert!(cfg.queue_capacity > 0, "need send-buffer capacity");
        assert!(cfg.max_coalesce > 0, "writers must send at least one frame");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, incoming) = unbounded();
        let stop_flag = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(s) => {
                        if tx.send(s).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(Self {
            addr,
            cfg,
            incoming,
            conns: Vec::new(),
            next_conn_id: 0,
            graveyard: Vec::new(),
            req_poll: None,
            req_events: Events::with_capacity(256),
            req_scratch: vec![0u8; 4096].into_boxed_slice(),
            stop,
            accept_thread: Some(accept_thread),
            faults: FaultSwitchboard::new(),
            channel_frames: crate::obs::ChannelCounters::new(crate::obs::fanout_by_channel),
            hello: None,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Retires an evicted connection: deregisters its reader clone from
    /// the request poll (closing the clone alone would NOT remove the
    /// registration — the writer thread's fd keeps the description open,
    /// and a stale registration would report readiness forever), closes
    /// the send channel, and parks the writer for the shutdown join.
    fn retire(req_poll: &Option<Poll>, graveyard: &mut Vec<JoinHandle<()>>, conn: Conn) {
        if conn.registered {
            if let (Some(poll), Some(reader)) = (req_poll.as_ref(), conn.reader.as_ref()) {
                let _ = poll.deregister(reader);
            }
        }
        drop(conn.tx);
        graveyard.push(conn.writer);
    }

    /// Installs (or, with [`FaultPlan::is_none`], removes) the fault plan
    /// this transport's broadcasts run under, on **every** channel
    /// (clearing per-channel overrides). A zero plan leaves the broadcast
    /// path bit-identical to never having called this.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults.set_default(plan);
    }

    /// Overrides the fault plan for one broadcast channel (other channels
    /// keep the [`Self::set_fault_plan`] default, or run clean without
    /// one).
    pub fn set_channel_fault_plan(&mut self, channel: u16, plan: FaultPlan) {
        self.faults.set_channel(channel, plan);
    }

    /// Faults injected so far, summed over every channel's injector.
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.counts()
    }

    /// Registers any connections the accept thread has queued; returns the
    /// current client count.
    pub fn poll_accept(&mut self) -> usize {
        let m = crate::obs::tcp();
        while let Ok(stream) = self.incoming.try_recv() {
            let _ = stream.set_nodelay(true);
            // Bound every blocking write so a stalled peer cannot wedge
            // this writer thread (and the shutdown join behind it).
            let _ = stream.set_write_timeout(self.cfg.write_timeout);
            // The upstream direction reads from a clone of the socket;
            // the original moves into the writer thread below.
            let reader = stream.try_clone().ok();
            let (tx, rx) = bounded::<Arc<[u8]>>(self.cfg.queue_capacity);
            let max_coalesce = self.cfg.max_coalesce;
            let writer = std::thread::spawn(move || {
                let coalesce = crate::obs::tcp().coalesce_batch;
                let mut stream = stream;
                let mut bufs: Vec<Arc<[u8]>> = Vec::with_capacity(max_coalesce);
                while let Ok(first) = rx.recv() {
                    // Fold whatever backlog has accumulated into one
                    // vectored write.
                    bufs.clear();
                    bufs.push(first);
                    while bufs.len() < max_coalesce {
                        match rx.try_recv() {
                            Ok(buf) => bufs.push(buf),
                            Err(_) => break,
                        }
                    }
                    coalesce.record(bufs.len() as u64);
                    if write_coalesced(&mut stream, &bufs).is_err() {
                        break;
                    }
                }
                let _ = stream.shutdown(std::net::Shutdown::Both);
            });
            let id = self.next_conn_id;
            self.next_conn_id += 1;
            if let Some(hello) = &self.hello {
                // Fresh bounded channel, capacity > 0: this cannot fail.
                let _ = tx.try_send(Arc::clone(hello));
            }
            self.conns.push(Conn {
                id,
                tx,
                writer,
                reader,
                registered: false,
                upstream: UpstreamParser::new(),
            });
            m.accepted.inc();
        }
        m.connections.set(self.conns.len() as i64);
        self.conns.len()
    }

    /// Waits until at least `n` clients are connected, sleeping between
    /// accept polls. Returns `false` promptly at the deadline — the final
    /// sleep is clamped to the time remaining, so a timeout overshoots by
    /// at most one poll, never a full poll interval. Call before starting
    /// a run so no client misses the first slots.
    pub fn wait_for_clients(&mut self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.poll_accept() >= n {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(1)));
        }
    }

    /// Severs every live connection at once — send channels close, each
    /// writer drains its backlog and hangs up — while the listener keeps
    /// accepting. From the fleet's side this is exactly a broker crash:
    /// every socket dies mid-stream and reconnect backoff kicks in. (The
    /// listener standing back up instantly models a restarted broker
    /// rebinding its well-known port; keeping the socket avoids fighting
    /// TIME_WAIT for the same port inside one test process.) Returns how
    /// many connections were severed.
    pub fn disconnect_all(&mut self) -> usize {
        let severed = self.conns.len();
        for conn in self.conns.drain(..) {
            Self::retire(&self.req_poll, &mut self.graveyard, conn);
        }
        crate::obs::tcp().connections.set(0);
        severed
    }

    /// Fans one encoded wire frame out to every connection.
    fn fan_out(&mut self, wire: &Arc<[u8]>, stats: &mut DeliveryStats) {
        let m = crate::obs::tcp();
        let mut i = 0;
        while i < self.conns.len() {
            // Backlog sampled before the enqueue so max_queue reports the
            // peak including the frame in flight.
            let backlog = self.conns[i].tx.len();
            m.writer_backlog.record(backlog as u64);
            match self.conns[i].tx.try_send(Arc::clone(wire)) {
                Ok(()) => {
                    stats.delivered += 1;
                    stats.bytes += wire.len() as u64;
                    stats.max_queue = stats.max_queue.max(backlog + 1);
                    i += 1;
                }
                Err(TrySendError::Full(_)) => match self.cfg.backpressure {
                    Backpressure::DropNewest => {
                        stats.dropped += 1;
                        stats.max_queue = stats.max_queue.max(backlog);
                        i += 1;
                    }
                    Backpressure::Disconnect | Backpressure::Block => {
                        // Evict in place: closing the channel lets the
                        // writer drain what is queued, then shut down.
                        stats.disconnected += 1;
                        event(EventKind::Disconnect, i as u64, 1);
                        let conn = self.conns.swap_remove(i);
                        Self::retire(&self.req_poll, &mut self.graveyard, conn);
                    }
                },
                Err(TrySendError::Disconnected(_)) => {
                    // Writer exited (peer closed or write error).
                    stats.disconnected += 1;
                    event(EventKind::Disconnect, i as u64, 0);
                    let conn = self.conns.swap_remove(i);
                    Self::retire(&self.req_poll, &mut self.graveyard, conn);
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
        self.poll_accept();
        let mut stats = DeliveryStats::default();
        self.channel_frames.get(frame.channel).inc();
        if self.faults.active() {
            let seq = frame.seq;
            let mut out: Vec<InjectedFrame> = Vec::new();
            match self.faults.injector_mut(frame.channel) {
                Some(inj) => {
                    // Per-client kills first: a killed connection misses
                    // even this slot's frame, like a receiver whose link
                    // just died. Evaluated against the frame's channel plan
                    // (the same client on the same seq evicts once even
                    // when several channels agree — the first frame wins).
                    let mut i = 0;
                    while i < self.conns.len() {
                        if inj.plan().kills_client(seq, self.conns[i].id) {
                            inj.record_kill(seq, self.conns[i].id);
                            stats.disconnected += 1;
                            event(EventKind::Disconnect, self.conns[i].id, 1);
                            let conn = self.conns.swap_remove(i);
                            Self::retire(&self.req_poll, &mut self.graveyard, conn);
                        } else {
                            i += 1;
                        }
                    }
                    // Channel faults next: erase, corrupt, delay/reorder.
                    inj.step(frame, &mut out);
                }
                // This channel runs clean under the installed plans.
                None => out.push(InjectedFrame {
                    frame,
                    corrupt: None,
                }),
            }
            if !self.conns.is_empty() {
                for injected in out {
                    let wire = match injected.corrupt {
                        Some(entropy) => encode_corrupted(&injected.frame, entropy),
                        None => injected.frame.encode_shared(),
                    };
                    self.fan_out(&wire, &mut stats);
                }
            }
        } else {
            if self.conns.is_empty() {
                return stats;
            }
            // Encode once per slot; every connection's writer shares the
            // bytes.
            let wire = frame.encode_shared();
            self.fan_out(&wire, &mut stats);
        }
        let m = crate::obs::tcp();
        m.bytes.add(stats.bytes);
        m.frames_dropped.add(stats.dropped);
        m.disconnects.add(stats.disconnected);
        m.connections.set(self.conns.len() as i64);
        stats
    }

    fn active_clients(&self) -> usize {
        self.conns.len()
    }

    fn take_requests(&mut self, out: &mut Vec<PullRequest>) {
        self.poll_accept();
        if self.req_poll.is_none() {
            self.req_poll = Poll::new().ok();
        }
        let Self {
            req_poll,
            req_events,
            req_scratch,
            conns,
            ..
        } = self;
        let Some(poll) = req_poll.as_mut() else {
            return;
        };
        // Register any connection not yet watched. Tokens are connection
        // ids (stable across `swap_remove`), not vector indices.
        for conn in conns.iter_mut() {
            if !conn.registered {
                if let Some(reader) = conn.reader.as_ref() {
                    match poll.register(reader, Token(conn.id as usize), Interest::READABLE) {
                        Ok(()) => conn.registered = true,
                        Err(_) => conn.reader = None,
                    }
                }
            }
        }
        // One poll pass, one read per ready connection. The reader clones
        // are *blocking* sockets, but a single read on a level-triggered
        // readable socket never blocks; any bytes left over re-signal on
        // the next call (the engine drains every tick).
        if !matches!(poll.poll(req_events, Some(Duration::ZERO)), Ok(n) if n > 0) {
            return;
        }
        for ev in req_events.iter() {
            let id = ev.token().0 as u64;
            let Some(conn) = conns.iter_mut().find(|c| c.id == id) else {
                continue;
            };
            let Some(reader) = conn.reader.as_ref() else {
                continue;
            };
            let mut r: &TcpStream = reader;
            match r.read(req_scratch) {
                Ok(n) if n > 0 => conn.upstream.feed(&req_scratch[..n], out),
                Ok(_) => {
                    // EOF: the peer shut down its write side. Stop
                    // watching; the writer thread handles the hangup.
                    let _ = poll.deregister(reader);
                    conn.registered = false;
                    conn.reader = None;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => {
                    let _ = poll.deregister(reader);
                    conn.registered = false;
                    conn.reader = None;
                }
            }
        }
    }

    fn set_hello(&mut self, hello: Option<Frame>) {
        self.hello = hello.map(|f| f.encode_shared());
    }

    fn finish(&mut self) -> DeliveryStats {
        for conn in self.conns.drain(..) {
            Self::retire(&self.req_poll, &mut self.graveyard, conn);
        }
        for writer in self.graveyard.drain(..) {
            let _ = writer.join();
        }
        if let Some(accept) = self.accept_thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept so the thread observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = accept.join();
        }
        // Hang up on connections accepted but never polled in (a client
        // reconnecting as the run ends): left queued, they stay open and
        // block that client's read until the transport is dropped.
        while self.incoming.try_recv().is_ok() {}
        crate::obs::tcp().connections.set(0);
        // TCP broadcasts are unbatched: all stats were reported per slot.
        DeliveryStats::default()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Client-side frame reader: connects and decodes the length-prefixed feed.
///
/// Frames whose CRC fails verification are *discarded and counted*, never
/// surfaced: the receiver treats a damaged frame exactly like an erased
/// one and recovers the page at its next periodic broadcast.
pub struct TcpFrameReader {
    stream: TcpStream,
    corrupt: u64,
}

impl TcpFrameReader {
    /// Connects to a broadcast server.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wraps an already-connected socket (e.g. one that has been writing
    /// raw upstream bytes and now wants the framed downstream view).
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self { stream, corrupt: 0 })
    }

    /// Frames discarded so far because their CRC failed.
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt
    }

    /// Writes one upstream pull-request record to the broker: "air `page`
    /// for `user`, who can receive from slot `min_seq` on". Fire-and-
    /// forget — the broker never replies on the backchannel; the answer,
    /// if any, is a `Slot::Pull` frame on the broadcast itself.
    pub fn send_request(&mut self, user: u32, page: PageId, min_seq: u64) -> io::Result<()> {
        self.stream.write_all(&encode_request(user, page, min_seq))
    }

    /// Reads the next intact frame, silently skipping CRC failures;
    /// `Ok(None)` on a clean end of stream.
    pub fn recv(&mut self) -> io::Result<Option<Frame>> {
        loop {
            let mut len_buf = [0u8; 4];
            if let Err(e) = self.stream.read_exact(&mut len_buf) {
                return match e.kind() {
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset => Ok(None),
                    _ => Err(e),
                };
            }
            let len = u32::from_le_bytes(len_buf) as usize;
            if len > MAX_FRAME_LEN {
                // The prefix is unauthenticated: never let it size an
                // allocation. A bound violation means a hostile or
                // desynchronized peer, not line noise — hang up.
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame length {len} exceeds bound {MAX_FRAME_LEN}"),
                ));
            }
            let mut body = vec![0u8; len];
            match self.stream.read_exact(&mut body) {
                Ok(()) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset
                    ) =>
                {
                    // Truncated mid-frame (server shut down): treat as EOF.
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
            match Frame::decode(&body) {
                Ok(frame) => return Ok(Some(frame)),
                Err(FrameError::Corrupt { .. }) => {
                    // Damaged in flight. Framing is intact (the length
                    // prefix is outside the faultable body), so skip this
                    // frame and keep reading; the sequence gap it leaves
                    // is the client's recovery signal.
                    self.corrupt += 1;
                    crate::obs::recovery().frames_corrupt.inc();
                    continue;
                }
                Err(FrameError::Truncated) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "malformed frame",
                    ));
                }
            }
        }
    }
}

/// Reconnect behavior for a [`TcpClientFeed`]: capped exponential backoff
/// with seeded jitter, bounded attempts per outage.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Connect attempts per outage before the feed gives up (end of feed).
    pub max_attempts: u32,
    /// Backoff before the second attempt (doubles each retry).
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter seed: the same seed replays the same backoff schedule.
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(100),
            seed: 0,
        }
    }
}

/// The backoff before retry `attempt` (1-based; attempt 0 is immediate and
/// never calls this): `base_delay * 2^(attempt-1)` capped at `max_delay`,
/// then jittered into `[50%, 100%]` of that by one draw from `rng`. Seeded
/// jitter keeps schedules replayable and desynchronized across a fleet;
/// the cap holds *after* jitter because jitter only ever shrinks the delay.
pub fn backoff_delay(policy: &ReconnectPolicy, attempt: u32, rng: &mut SplitMix) -> Duration {
    debug_assert!(attempt > 0, "attempt 0 connects immediately");
    let exp = policy
        .base_delay
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(policy.max_delay);
    exp.mul_f64(0.5 + 0.5 * rng.next_f64())
}

/// A self-healing client feed: wraps [`TcpFrameReader`] and, when the
/// connection dies mid-broadcast, reconnects with capped exponential
/// backoff + jitter and resumes from whatever slot the server broadcasts
/// next. Frames carry absolute slot sequence numbers, so the consumer
/// resynchronizes on the first post-reconnect frame and sees the outage as
/// an ordinary (if long) sequence gap — recovered page by page as the
/// periodic program comes around.
pub struct TcpClientFeed {
    addr: SocketAddr,
    policy: ReconnectPolicy,
    /// Feed id for journal events (typically the client id).
    id: u64,
    rng: SplitMix,
    reader: Option<TcpFrameReader>,
    reconnects: u64,
    corrupt: u64,
}

impl TcpClientFeed {
    /// Connects to a broadcast server (initial connect retries under the
    /// same backoff policy as reconnects, but is not counted as one).
    pub fn connect(addr: SocketAddr, policy: ReconnectPolicy, id: u64) -> io::Result<Self> {
        let seed = policy.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut feed = Self {
            addr,
            policy,
            id,
            rng: SplitMix::new(seed),
            reader: None,
            reconnects: 0,
            corrupt: 0,
        };
        feed.reader = feed.attempt_connect();
        if feed.reader.is_some() {
            Ok(feed)
        } else {
            Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "broadcast server unreachable",
            ))
        }
    }

    /// Completed reconnects (outages survived) so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// CRC-failed frames discarded so far, across all connections.
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt + self.reader.as_ref().map_or(0, |r| r.corrupt_frames())
    }

    /// Connect with backoff; `None` when attempts are exhausted.
    fn attempt_connect(&mut self) -> Option<TcpFrameReader> {
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                std::thread::sleep(backoff_delay(&self.policy, attempt, &mut self.rng));
            }
            if let Ok(reader) = TcpFrameReader::connect(self.addr) {
                return Some(reader);
            }
        }
        None
    }

    /// Reads the next intact frame, transparently reconnecting on
    /// connection loss; `None` when the feed is over (the server is gone
    /// and backoff attempts are exhausted).
    pub fn recv(&mut self) -> Option<Frame> {
        loop {
            let reader = self.reader.as_mut()?;
            match reader.recv() {
                Ok(Some(frame)) => return Some(frame),
                Ok(None) | Err(_) => {
                    // Connection lost (killed, reset, or server done):
                    // bank its corrupt count and try to rejoin.
                    self.corrupt += reader.corrupt_frames();
                    self.reader = self.attempt_connect();
                    if self.reader.is_some() {
                        self.reconnects += 1;
                        crate::obs::recovery().reconnects.inc();
                        event(EventKind::Reconnect, self.id, self.reconnects);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::PagePayloads;
    use bdisk_sched::{PageId, Slot};

    #[test]
    fn loopback_round_trip_carries_payloads() {
        let mut transport = TcpTransport::bind(TcpTransportConfig::default()).unwrap();
        let addr = transport.local_addr();
        let reader = std::thread::spawn(move || {
            let mut reader = TcpFrameReader::connect(addr).unwrap();
            let mut frames = Vec::new();
            while let Some(frame) = reader.recv().unwrap() {
                frames.push(frame);
            }
            frames
        });
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        let payloads = PagePayloads::generate(10, 16);
        for seq in 0..10u64 {
            let stats = transport.broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32))));
            assert_eq!(stats.delivered, 1);
            assert_eq!(stats.dropped, 0);
            assert!(stats.bytes > 0);
        }
        transport.finish();
        let frames = reader.join().unwrap();
        assert_eq!(frames.len(), 10);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.slot, Slot::Page(PageId(i as u32)));
            let expect = payloads.frame(i as u64, Slot::Page(PageId(i as u32)));
            assert_eq!(f.payload, expect.payload, "payload survived the wire");
        }
    }

    #[test]
    fn closed_peer_detected() {
        let mut transport = TcpTransport::bind(TcpTransportConfig {
            queue_capacity: 1,
            ..TcpTransportConfig::default()
        })
        .unwrap();
        let addr = transport.local_addr();
        let reader = TcpFrameReader::connect(addr).unwrap();
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        drop(reader);
        // Keep broadcasting until the write error propagates back.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut disconnected = 0;
        while disconnected == 0 && Instant::now() < deadline {
            disconnected = transport
                .broadcast(Frame::bare(0, Slot::Empty))
                .disconnected;
        }
        assert_eq!(disconnected, 1);
        assert_eq!(transport.active_clients(), 0);
    }

    /// A writer that accepts at most 3 bytes per call, to exercise the
    /// partial-write resume path of the coalescer.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn wait_for_clients_times_out_promptly() {
        let mut transport = TcpTransport::bind(TcpTransportConfig::default()).unwrap();
        let timeout = Duration::from_millis(100);
        let start = Instant::now();
        assert!(!transport.wait_for_clients(1, timeout));
        let elapsed = start.elapsed();
        assert!(elapsed >= timeout, "returned before the deadline");
        // The final sleep is clamped to the time remaining, so the return
        // lands within scheduling noise of the deadline — not a full poll
        // interval (or worse) past it.
        assert!(
            elapsed < timeout + Duration::from_millis(100),
            "timeout overshot: {elapsed:?}"
        );
    }

    #[test]
    fn corrupt_frames_are_skipped_and_counted() {
        let mut transport = TcpTransport::bind(TcpTransportConfig::default()).unwrap();
        let addr = transport.local_addr();
        // Corrupt every frame at seq 1 (deterministically, via a plan that
        // corrupts everything and erases/delays nothing).
        transport.set_fault_plan(FaultPlan {
            seed: 3,
            corruption: 1.0,
            ..FaultPlan::none()
        });
        let reader = std::thread::spawn(move || {
            let mut reader = TcpFrameReader::connect(addr).unwrap();
            let mut frames = Vec::new();
            while let Some(frame) = reader.recv().unwrap() {
                frames.push(frame);
            }
            (frames, reader.corrupt_frames())
        });
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        let payloads = PagePayloads::generate(4, 32);
        for seq in 0..6u64 {
            transport.broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32 % 4))));
        }
        transport.finish();
        let (frames, corrupt) = reader.join().unwrap();
        assert!(frames.is_empty(), "every frame was damaged: {frames:?}");
        assert_eq!(corrupt, 6, "all six damaged frames counted");
    }

    /// The lifecycle pin: dropping the transport joins the accept thread
    /// and every per-connection writer thread — including one blocked in a
    /// socket write against a peer that stopped reading — promptly, not
    /// eventually. The stalled writer is released by the bounded
    /// `write_timeout`, so shutdown latency is `O(write_timeout)`, never
    /// unbounded.
    #[test]
    fn shutdown_joins_writer_and_accept_threads_promptly() {
        let mut transport = TcpTransport::bind(TcpTransportConfig {
            queue_capacity: 8,
            write_timeout: Some(Duration::from_millis(200)),
            ..TcpTransportConfig::default()
        })
        .unwrap();
        let addr = transport.local_addr();
        // A connected client that never reads: the kernel socket buffers
        // fill and the connection's writer thread blocks mid-write.
        let stalled = TcpFrameReader::connect(addr).unwrap();
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        let payloads = PagePayloads::generate(4, 16 * 1024);
        for seq in 0..512u64 {
            transport.broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32 % 4))));
        }
        let start = Instant::now();
        // finish() (via drop) must close the send channels, wake the
        // accept loop, and join every thread.
        drop(transport);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "shutdown joins took {elapsed:?} (write_timeout is 200ms)"
        );
        drop(stalled);
    }

    /// A connection the accept thread queued but no poll adopted is closed
    /// by `finish`, so its client reads end-of-stream instead of blocking
    /// for as long as the transport lives.
    #[test]
    fn finish_hangs_up_on_connections_never_polled() {
        let mut transport = TcpTransport::bind(TcpTransportConfig::default()).unwrap();
        let mut late = TcpStream::connect(transport.local_addr()).unwrap();
        while transport.incoming.is_empty() {
            std::thread::yield_now();
        }
        transport.finish();
        late.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(
            late.read(&mut buf).expect("hung up, not left open"),
            0,
            "end of stream"
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        // A hostile peer (here: a raw socket posing as the server) sends a
        // forged length prefix claiming a multi-gigabyte frame. The reader
        // must refuse it outright instead of trusting the unauthenticated
        // prefix as an allocation size.
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let evil = (u32::MAX - 7).to_le_bytes();
            stream.write_all(&evil).unwrap();
            // Keep the socket open: the reader must fail on the prefix
            // alone, not on a downstream EOF.
            std::thread::sleep(Duration::from_millis(200));
        });
        let mut reader = TcpFrameReader::connect(addr).unwrap();
        let err = reader.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("exceeds bound"),
            "unexpected error: {err}"
        );
        server.join().unwrap();

        // A length exactly at the bound is still read (and then rejected
        // only by frame decoding, not by the allocation guard).
        assert!(MAX_FRAME_LEN < u32::MAX as usize);
    }

    #[test]
    fn backoff_is_capped_and_deterministic_per_seed() {
        let policy = ReconnectPolicy {
            max_attempts: 32,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(100),
            seed: 0xB0FF,
        };
        // Determinism: the same seed replays the same schedule exactly.
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = SplitMix::new(seed);
            (1..32)
                .map(|a| backoff_delay(&policy, a, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(
            schedule(7),
            schedule(8),
            "different seeds must jitter apart"
        );

        // The cap holds for every attempt — including ones whose shift
        // would overflow without the `.min(16)` clamp — and jitter keeps
        // each delay within [50%, 100%] of the capped exponential.
        let mut rng = SplitMix::new(policy.seed);
        for attempt in 1..64u32 {
            let d = backoff_delay(&policy, attempt, &mut rng);
            assert!(d <= policy.max_delay, "attempt {attempt}: {d:?} over cap");
            let exp = policy
                .base_delay
                .saturating_mul(1u32 << (attempt - 1).min(16))
                .min(policy.max_delay);
            assert!(
                d >= exp.mul_f64(0.5),
                "attempt {attempt}: {d:?} under floor"
            );
        }
    }

    #[test]
    fn upstream_requests_reach_take_requests() {
        let mut transport = TcpTransport::bind(TcpTransportConfig::default()).unwrap();
        let addr = transport.local_addr();
        let mut reader = TcpFrameReader::connect(addr).unwrap();
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        reader.send_request(3, PageId(9), 50).unwrap();
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while out.is_empty() && Instant::now() < deadline {
            transport.take_requests(&mut out);
        }
        assert_eq!(
            out,
            vec![PullRequest {
                user: 3,
                page: PageId(9),
                min_seq: 50
            }]
        );
        // The downstream direction is unaffected: broadcast still flows.
        let payloads = PagePayloads::generate(2, 16);
        let stats = transport.broadcast(payloads.frame(0, Slot::Page(PageId(1))));
        assert_eq!(stats.delivered, 1);
        transport.finish();
        let frame = reader.recv().unwrap().expect("frame delivered");
        assert_eq!(frame.slot, Slot::Page(PageId(1)));
    }

    /// Garbage upstream bytes on the threaded path: rejected by the
    /// parser, never a disconnect — mirror of the evented pin.
    #[test]
    fn garbage_upstream_bytes_never_kill_the_connection() {
        let mut transport = TcpTransport::bind(TcpTransportConfig::default()).unwrap();
        let addr = transport.local_addr();
        let mut legacy = TcpStream::connect(addr).unwrap();
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        legacy.write_all(&[0xAB; 512]).unwrap();
        // Then a valid record after the noise: resync must find it.
        legacy
            .write_all(&crate::upstream::encode_request(1, PageId(2), 3))
            .unwrap();
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while out.is_empty() && Instant::now() < deadline {
            transport.take_requests(&mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].page, PageId(2));
        assert_eq!(transport.active_clients(), 1, "garbage killed the conn");
        drop(legacy);
    }

    #[test]
    fn coalesced_write_survives_partial_writes() {
        let bufs: Vec<Arc<[u8]>> = vec![
            Arc::from(&b"hello "[..]),
            Arc::from(&b""[..]),
            Arc::from(&b"broadcast "[..]),
            Arc::from(&b"world"[..]),
        ];
        let mut sink = Trickle(Vec::new());
        write_coalesced(&mut sink, &bufs).unwrap();
        assert_eq!(sink.0, b"hello broadcast world");
    }
}
