//! The TCP broadcast server: one thread, one `epoll` loop, every
//! connection in slab storage — the fan-out path that scales to 10k+
//! concurrent tuners on a single core.
//!
//! The paper's server pushes one stream to every client, so its cost
//! should not grow with the number of listeners. This transport
//! multiplexes every socket over a single readiness-polling event loop
//! ([`mini_mio::Poll`], epoll under the hood); no thread is ever spawned:
//!
//! * **Slab storage** — connections live in a dense `Vec<Option<EvConn>>`
//!   indexed by their poll [`Token`]; a free list recycles slots, and
//!   indices freed mid-pump are quarantined one pump so a stale readiness
//!   event can never alias a new connection.
//! * **Broadcast-once frames** — each slot's wire frame is encoded exactly
//!   once into an `Arc<[u8]>` and every connection's backlog holds a
//!   refcount to the same bytes. Per-connection send state is nothing but
//!   a bounded deque of frame refs plus a byte cursor into the front
//!   buffer, so steady-state broadcast is allocation-free no matter the
//!   fan-out (`tests/alloc_evented.rs` pins this).
//! * **Coalesced vectored writes** — a flush folds up to
//!   [`TcpTransportConfig::max_coalesce`] backlog buffers into one
//!   `writev`, resuming across partial writes via the cursor. `WouldBlock`
//!   arms `WRITABLE` interest; the next writable event continues the drain
//!   and disarms when the backlog empties.
//! * **Backpressure** — a backlog at [`TcpTransportConfig::queue_capacity`]
//!   applies the [`Backpressure`] policy: `DropNewest` skips the new frame
//!   for that connection, `Disconnect` evicts the slow consumer. There is
//!   no blocking policy: a broadcast medium never stalls on one receiver.
//! * **Faults** — kills, erasure, corruption, and delay run through the
//!   `FaultSwitchboard` choke point (one seeded injector per channel) and
//!   the `encode_corrupted` bit-flipper, so a fault plan's schedule is a
//!   pure function of its seed; `tests/evented_equivalence.rs` pins every
//!   connection's bytes to a model built from that public surface.
//! * **Shutdown** — `finish` drains backlogs for at most
//!   [`TcpTransportConfig::drain_grace`], then hangs up on every
//!   connection, including any still queued in the listener's accept
//!   backlog. The listener stays bound, so a restarted engine can take
//!   over the same address while clients reconnect.
//!
//! Writes are batched: frames accumulate in per-connection backlogs and
//! each backlog is flushed once every `flush_every` broadcasts (or on a
//! writable event). A free-running engine relies on that cadence alone,
//! trading a delivery delay of up to one cadence for syscall amortization
//! across slots, on top of the write amplification already being O(1)
//! per slot in payload bytes. That delay is wall-clock latency a tuner
//! waits through, which matters to a paced broadcast (and to a pull
//! answered over it), so a paced engine with time left before its next
//! slot calls [`Transport::flush`] and each slot leaves in its own slot
//! time. A paced engine running behind its deadlines skips that call and
//! falls back to the cadence.
//!
//! The cadence is staggered. Connections fall into `min(16, flush_every)`
//! stripes by slab index, and stripe `s` flushes at broadcast offset
//! `s · ⌊flush_every / stripes⌋` of each cadence. Every connection still
//! gets one full-batch `writev` per cadence, but a flush slot writes one
//! stripe of the fleet instead of all of it, so no single slot carries a
//! whole cadence of socket bytes and the slot clock stays smooth.
//! [`Transport::flush`] and `finish` flush every stripe.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bdisk_obs::journal::{event, EventKind};
use bdisk_obs::trace;
use mini_mio::{Events, Interest, Poll, Token};

use crate::faults::{encode_corrupted, FaultCounts, FaultPlan, FaultSwitchboard, InjectedFrame};
use crate::transport::{Backpressure, DeliveryStats, Frame, PullRequest, Transport};
use crate::upstream::UpstreamParser;

/// TCP transport tuning knobs.
#[derive(Debug, Clone)]
pub struct TcpTransportConfig {
    /// Frames buffered per connection before backpressure applies.
    pub queue_capacity: usize,
    /// Slow-consumer policy.
    pub backpressure: Backpressure,
    /// Most backlog frames a flush folds into one vectored write.
    pub max_coalesce: usize,
    /// How long `finish` keeps draining backlogs into sockets before it
    /// hangs up on every connection. A peer that stopped reading cannot
    /// hold shutdown past this bound.
    pub drain_grace: Duration,
}

impl Default for TcpTransportConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            backpressure: Backpressure::DropNewest,
            max_coalesce: 64,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Poll token reserved for the listening socket (connection tokens are
/// slab indices, which can never reach this).
const LISTENER_TOKEN: Token = Token(usize::MAX);

/// How many of the slowest consumers get their own labeled gauge rank
/// (`bd_slow_consumer_lag{rank}` / `bd_slow_consumer_conn{rank}`).
const SLOW_CONSUMER_TOP_K: usize = 4;

/// Most backlog buffers folded into one vectored write; bounds the
/// stack-allocated `IoSlice` array (IOV_MAX is far larger), and so the
/// largest [`TcpTransportConfig::max_coalesce`] `bind` accepts.
const MAX_BATCH: usize = 64;

/// Most stripes a flush cadence is staggered over (fewer when the cadence
/// is shorter than this many broadcasts).
const MAX_STRIPES: usize = 16;

/// Cap on parsed-but-undrained upstream requests held by the transport.
/// The engine drains every tick; this only bounds memory if it stops
/// draining (or a pull-disabled run faces request-writing clients).
const MAX_PENDING_REQUESTS: usize = 65_536;

/// Per-connection state: all of it. The backlog holds refcounts to shared
/// wire frames; `cursor` is how many bytes of the front buffer have
/// already reached the socket.
struct EvConn {
    /// Stable id (accept order) — fault plans key per-client kills on it.
    id: u64,
    stream: TcpStream,
    backlog: VecDeque<Arc<[u8]>>,
    cursor: usize,
    /// `WRITABLE` interest is currently registered (flush hit
    /// `WouldBlock`); the writable event resumes the drain.
    armed: bool,
    /// Reassembles this connection's upstream byte stream into pull
    /// requests. Readable events drain the socket through this parser
    /// (instead of discarding the bytes) — garbage from a push-only
    /// client is skipped and counted, never a reason to disconnect.
    upstream: UpstreamParser,
}

/// Removes the connection at `idx` from the slab: deregisters it, shuts
/// the socket down, and quarantines the slot index in `pending_free` until
/// the next pump (a readiness event already harvested for this token must
/// not alias a future connection). Returns the connection id, or `None`
/// when the slot was already empty.
fn evict_slot(
    poll: &Poll,
    slab: &mut [Option<EvConn>],
    pending_free: &mut Vec<usize>,
    live: &mut usize,
    idx: usize,
) -> Option<u64> {
    let conn = slab[idx].take()?;
    let _ = poll.deregister(&conn.stream);
    let _ = conn.stream.shutdown(Shutdown::Both);
    pending_free.push(idx);
    *live -= 1;
    Some(conn.id)
}

/// Drains as much of the connection's backlog as the socket accepts:
/// coalesced vectored writes, cursor resume across partial writes,
/// `WouldBlock` arms `WRITABLE` interest (disarmed once empty). `Err`
/// means the connection is dead and must be evicted.
fn flush_conn(poll: &Poll, conn: &mut EvConn, idx: usize, max_coalesce: usize) -> io::Result<()> {
    // Stage tracing charges socket-drain wall time to the next sampled
    // slot via the drain accumulator. One relaxed load when tracing is
    // off — the clock is never read on the untraced path.
    let drain_start = (trace::sample_every() != 0).then(std::time::Instant::now);
    let res = flush_conn_inner(poll, conn, idx, max_coalesce);
    if let Some(start) = drain_start {
        trace::note_drain_micros(start.elapsed().as_micros() as u64);
    }
    res
}

fn flush_conn_inner(
    poll: &Poll,
    conn: &mut EvConn,
    idx: usize,
    max_coalesce: usize,
) -> io::Result<()> {
    let m = crate::obs::evented();
    let tcp_m = crate::obs::tcp();
    while !conn.backlog.is_empty() {
        let batch = conn.backlog.len().min(max_coalesce);
        let mut total = 0usize;
        // Fixed-size stack array: the hot path never allocates an iovec.
        let iov: [IoSlice<'_>; MAX_BATCH] = std::array::from_fn(|i| {
            if i < batch {
                let start = if i == 0 { conn.cursor } else { 0 };
                let buf = &conn.backlog[i][start..];
                total += buf.len();
                IoSlice::new(buf)
            } else {
                IoSlice::new(&[])
            }
        });
        tcp_m.coalesce_batch.record(batch as u64);
        match conn.stream.write_vectored(&iov[..batch]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket write returned zero",
                ));
            }
            Ok(mut n) => {
                if n < total {
                    m.partial_writes.inc();
                }
                // Retire fully-written buffers; the cursor remembers the
                // split point inside the front one.
                while n > 0 {
                    let front_left = conn.backlog.front().map_or(0, |b| b.len() - conn.cursor);
                    if n >= front_left {
                        n -= front_left;
                        conn.backlog.pop_front();
                        conn.cursor = 0;
                    } else {
                        conn.cursor += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !conn.armed {
                    conn.armed = true;
                    poll.reregister(
                        &conn.stream,
                        Token(idx),
                        Interest::READABLE | Interest::WRITABLE,
                    )?;
                }
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.armed {
        conn.armed = false;
        poll.reregister(&conn.stream, Token(idx), Interest::READABLE)?;
    }
    Ok(())
}

/// Broadcast server over loopback TCP behind the [`Transport`] trait.
///
/// One thread total: a connection costs a slab slot and a backlog ring,
/// never an OS thread. Clients read the feed with
/// [`crate::TcpFrameReader`] or [`crate::TcpClientFeed`];
/// `tests/evented_equivalence.rs` pins every connection's bytes and the
/// summed [`DeliveryStats`] to a pure model of the wire.
pub struct EventedTcpTransport {
    addr: SocketAddr,
    cfg: TcpTransportConfig,
    listener: TcpListener,
    poll: Poll,
    events: Events,
    slab: Vec<Option<EvConn>>,
    /// Slab indices free for reuse.
    free: Vec<usize>,
    /// Indices freed since the last pump — quarantined until the next
    /// poll so a stale event cannot alias a recycled token.
    pending_free: Vec<usize>,
    /// Occupied slab slots.
    live: usize,
    next_conn_id: u64,
    /// Broadcasts into the current flush cadence, modulo `flush_every`.
    cadence: usize,
    /// Flush cadence: each backlog is flushed once every this many
    /// broadcasts (writable events flush eagerly in between).
    flush_every: usize,
    /// Stripes the cadence is staggered over: slab index `i` flushes at
    /// offset `(i % stripes) · ⌊flush_every / stripes⌋`.
    stripes: usize,
    /// Reusable buffer for draining client-to-server bytes.
    read_scratch: Box<[u8]>,
    /// Total client-to-server bytes drained (the upstream channel of the
    /// asymmetric link — tiny by design).
    upstream_bytes: u64,
    /// Pull requests parsed off connections, awaiting `take_requests`.
    pending_requests: Vec<PullRequest>,
    /// Requests discarded because `pending_requests` hit its cap.
    requests_dropped: u64,
    /// Per-channel fault choke points (default plan + overrides).
    faults: FaultSwitchboard,
    /// Per-channel fan-out counters, cached off the registry.
    channel_frames: crate::obs::ChannelCounters,
    /// Cached `bd_slow_consumer_lag{rank}` gauges, slowest first.
    slow_lag: [&'static bdisk_obs::registry::Gauge; SLOW_CONSUMER_TOP_K],
    /// Cached `bd_slow_consumer_conn{rank}` gauges, parallel to `slow_lag`.
    slow_conn: [&'static bdisk_obs::registry::Gauge; SLOW_CONSUMER_TOP_K],
    /// Encoded greeting frame enqueued to every new connection before any
    /// broadcast traffic (the epoch hello fence).
    hello: Option<Arc<[u8]>>,
}

impl EventedTcpTransport {
    /// Binds `127.0.0.1:0` and registers the listener with the poll; no
    /// threads are spawned, ever.
    pub fn bind(cfg: TcpTransportConfig) -> io::Result<Self> {
        assert!(cfg.queue_capacity > 0, "need send-buffer capacity");
        assert!(cfg.max_coalesce > 0, "flushes must send at least one frame");
        assert!(
            cfg.max_coalesce <= MAX_BATCH,
            "max_coalesce {} exceeds the {MAX_BATCH}-frame vectored write",
            cfg.max_coalesce
        );
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poll = Poll::new()?;
        poll.register(&listener, LISTENER_TOKEN, Interest::READABLE)?;
        // Flush often enough that a backlog never fills from batching
        // alone, rarely enough to amortize the write syscalls.
        let flush_every = cfg.max_coalesce.min(cfg.queue_capacity / 2).max(1);
        let stripes = flush_every.min(MAX_STRIPES);
        Ok(Self {
            addr,
            cfg,
            listener,
            poll,
            events: Events::with_capacity(1024),
            slab: Vec::new(),
            free: Vec::new(),
            pending_free: Vec::new(),
            live: 0,
            next_conn_id: 0,
            cadence: 0,
            flush_every,
            stripes,
            read_scratch: vec![0u8; 4096].into_boxed_slice(),
            upstream_bytes: 0,
            pending_requests: Vec::new(),
            requests_dropped: 0,
            faults: FaultSwitchboard::new(),
            channel_frames: crate::obs::ChannelCounters::new(crate::obs::fanout_by_channel),
            slow_lag: std::array::from_fn(crate::obs::slow_consumer_lag),
            slow_conn: std::array::from_fn(crate::obs::slow_consumer_conn),
            hello: None,
        })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Client-to-server bytes drained off connection sockets so far.
    pub fn upstream_bytes(&self) -> u64 {
        self.upstream_bytes
    }

    /// Upstream bytes rejected by the request parsers (garbage, corrupt
    /// records, overflow discards) across all live connections.
    pub fn upstream_rejected_bytes(&self) -> u64 {
        self.slab
            .iter()
            .flatten()
            .map(|c| c.upstream.rejected_bytes())
            .sum()
    }

    /// Requests discarded at the transport's pending cap so far.
    pub fn requests_dropped(&self) -> u64 {
        self.requests_dropped
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

    /// Runs one turn of the event loop (accepts, reads, resumed writes);
    /// returns the current client count.
    pub fn poll_accept(&mut self) -> usize {
        let mut stats = DeliveryStats::default();
        self.pump(Some(Duration::ZERO), &mut stats);
        self.live
    }

    /// Waits until at least `n` clients are connected, pumping the event
    /// loop. Returns `false` promptly at the deadline — the final poll
    /// timeout is clamped to the time remaining.
    pub fn wait_for_clients(&mut self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stats = DeliveryStats::default();
        loop {
            if self.live >= n {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let wait = (deadline - now).min(Duration::from_millis(1));
            self.pump(Some(wait), &mut stats);
        }
    }

    /// One event-loop turn: release quarantined slab slots, poll, then
    /// handle accepts, client reads (upstream bytes, hangups), and
    /// writable events (backlog resume). Disconnections detected here are
    /// charged to `stats`.
    fn pump(&mut self, timeout: Option<Duration>, stats: &mut DeliveryStats) {
        let m = crate::obs::evented();
        let tcp_m = crate::obs::tcp();
        // Slots freed during the previous pump are safe to recycle now:
        // their sockets were deregistered before this poll, so no stale
        // event can carry their token anymore.
        self.free.append(&mut self.pending_free);
        let Self {
            poll,
            events,
            listener,
            slab,
            free,
            pending_free,
            live,
            next_conn_id,
            cfg,
            read_scratch,
            upstream_bytes,
            pending_requests,
            requests_dropped,
            hello,
            flush_every,
            ..
        } = self;
        match poll.poll(events, timeout) {
            Ok(0) | Err(_) => {}
            Ok(_) => m.poll_wakeups.inc(),
        }
        for ev in events.iter() {
            if ev.token() == LISTENER_TOKEN {
                // Accept everything queued (level-triggered, but draining
                // now keeps the backlog short during connect storms).
                while let Ok((stream, _)) = listener.accept() {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = free.pop().unwrap_or_else(|| {
                        slab.push(None);
                        slab.len() - 1
                    });
                    if poll
                        .register(&stream, Token(idx), Interest::READABLE)
                        .is_err()
                    {
                        free.push(idx);
                        continue;
                    }
                    let id = *next_conn_id;
                    *next_conn_id += 1;
                    // Sized for a consumer that keeps up (one flush cadence
                    // plus the greeting); a lagging one grows its ring with
                    // its lag, so memory is not clients × `queue_capacity`.
                    let mut backlog = VecDeque::with_capacity(*flush_every + 1);
                    // The greeting rides the normal backlog, so it reaches
                    // the socket ahead of any broadcast frame.
                    if let Some(hello) = hello {
                        backlog.push_back(Arc::clone(hello));
                    }
                    slab[idx] = Some(EvConn {
                        id,
                        stream,
                        backlog,
                        cursor: 0,
                        armed: false,
                        upstream: UpstreamParser::new(),
                    });
                    *live += 1;
                    tcp_m.accepted.inc();
                }
                continue;
            }
            let idx = ev.token().0;
            if idx >= slab.len() {
                continue;
            }
            let mut dead = false;
            if ev.is_readable() {
                if let Some(conn) = slab[idx].as_mut() {
                    // Drain the upstream direction explicitly: every byte
                    // read goes through the connection's request parser
                    // (valid records become pull requests; everything
                    // else is skipped and counted — never fatal). EOF or
                    // a socket error means the tuner hung up.
                    loop {
                        match conn.stream.read(read_scratch) {
                            Ok(0) => {
                                dead = true;
                                break;
                            }
                            Ok(n) => {
                                *upstream_bytes += n as u64;
                                conn.upstream.feed(&read_scratch[..n], pending_requests);
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                dead = true;
                                break;
                            }
                        }
                    }
                    if pending_requests.len() > MAX_PENDING_REQUESTS {
                        let excess = pending_requests.len() - MAX_PENDING_REQUESTS;
                        *requests_dropped += excess as u64;
                        pending_requests.truncate(MAX_PENDING_REQUESTS);
                    }
                }
            }
            if !dead && ev.is_writable() {
                if let Some(conn) = slab[idx].as_mut() {
                    if conn.backlog.is_empty() {
                        // Backlog emptied between arming and this event.
                        m.writable_spurious.inc();
                        if conn.armed {
                            conn.armed = false;
                            let _ = poll.reregister(&conn.stream, Token(idx), Interest::READABLE);
                        }
                    } else if flush_conn(poll, conn, idx, cfg.max_coalesce).is_err() {
                        dead = true;
                    }
                }
            }
            if dead {
                if let Some(id) = evict_slot(poll, slab, pending_free, live, idx) {
                    stats.disconnected += 1;
                    event(EventKind::Disconnect, id, 0);
                }
            }
        }
        tcp_m.connections.set(*live as i64);
        m.slab_occupancy.set(*live as i64);
    }

    /// Appends one shared wire frame to every live backlog, applying
    /// backpressure. O(clients) refcount bumps; zero byte copies, zero
    /// allocations.
    fn enqueue_all(&mut self, wire: &Arc<[u8]>, stats: &mut DeliveryStats) {
        let tcp_m = crate::obs::tcp();
        let stage_m = crate::obs::stage();
        let Self {
            poll,
            slab,
            pending_free,
            live,
            cfg,
            slow_lag,
            slow_conn,
            ..
        } = self;
        // Slowest consumers this broadcast: a fixed-size descending
        // insertion keeps the top-K without allocating on the hot path.
        let mut top: [(usize, u64); SLOW_CONSUMER_TOP_K] = [(0, 0); SLOW_CONSUMER_TOP_K];
        for idx in 0..slab.len() {
            let (backlog, conn_id) = match slab[idx].as_ref() {
                Some(conn) => (conn.backlog.len(), conn.id),
                None => continue,
            };
            let mut entry = (backlog, conn_id);
            for slot in top.iter_mut() {
                if entry.0 > slot.0 {
                    std::mem::swap(slot, &mut entry);
                }
            }
            if backlog >= cfg.queue_capacity {
                match cfg.backpressure {
                    Backpressure::DropNewest => {
                        stats.dropped += 1;
                        stats.max_queue = stats.max_queue.max(backlog);
                    }
                    Backpressure::Disconnect => {
                        if let Some(id) = evict_slot(poll, slab, pending_free, live, idx) {
                            stats.disconnected += 1;
                            event(EventKind::Disconnect, id, 1);
                        }
                    }
                }
            } else if let Some(conn) = slab[idx].as_mut() {
                conn.backlog.push_back(Arc::clone(wire));
                stats.delivered += 1;
                stats.bytes += wire.len() as u64;
                stats.max_queue = stats.max_queue.max(backlog + 1);
            }
        }
        // One histogram sample per broadcast — the slowest writer's lag —
        // not one per connection.
        let watermark = top[0].0;
        tcp_m.writer_backlog.record(watermark as u64);
        stage_m.conn_lag_watermark.set_max(watermark as i64);
        for (rank, (lag, conn_id)) in top.iter().enumerate() {
            slow_lag[rank].set(*lag as i64);
            slow_conn[rank].set(*conn_id as i64);
        }
    }

    /// Flushes every unarmed, non-empty backlog whose slab index is
    /// `stripe` modulo `stripes` (armed connections wait for their
    /// writable event instead of burning a doomed syscall); `(0, 1)`
    /// flushes them all. Returns whether any of those backlogs still
    /// holds bytes.
    fn flush_ready(&mut self, stripe: usize, stripes: usize, stats: &mut DeliveryStats) -> bool {
        let Self {
            poll,
            slab,
            pending_free,
            live,
            cfg,
            ..
        } = self;
        let mut remaining = false;
        for idx in (stripe..slab.len()).step_by(stripes) {
            let mut dead = false;
            if let Some(conn) = slab[idx].as_mut() {
                if !conn.backlog.is_empty() && !conn.armed {
                    dead = flush_conn(poll, conn, idx, cfg.max_coalesce).is_err();
                }
                if !dead {
                    remaining |= !conn.backlog.is_empty();
                }
            }
            if dead {
                if let Some(id) = evict_slot(poll, slab, pending_free, live, idx) {
                    stats.disconnected += 1;
                    event(EventKind::Disconnect, id, 0);
                }
            }
        }
        remaining
    }
}

impl Transport for EventedTcpTransport {
    fn broadcast(&mut self, frame: Frame) -> DeliveryStats {
        let mut stats = DeliveryStats::default();
        self.pump(Some(Duration::ZERO), &mut stats);
        self.channel_frames.get(frame.channel).inc();
        if self.faults.active() {
            let seq = frame.seq;
            let mut out: Vec<InjectedFrame> = Vec::new();
            match self.faults.injector_mut(frame.channel) {
                Some(inj) => {
                    // Per-client kills first: a killed connection misses
                    // even this slot's frame, like a receiver whose link
                    // just died. Earlier slots still reach it: its backlog
                    // is drained into the socket before the hangup.
                    for idx in 0..self.slab.len() {
                        let Some(conn) = self.slab[idx].as_mut() else {
                            continue;
                        };
                        if inj.plan().kills_client(seq, conn.id) {
                            inj.record_kill(seq, conn.id);
                            let _ = flush_conn(&self.poll, conn, idx, self.cfg.max_coalesce);
                            if let Some(id) = evict_slot(
                                &self.poll,
                                &mut self.slab,
                                &mut self.pending_free,
                                &mut self.live,
                                idx,
                            ) {
                                stats.disconnected += 1;
                                event(EventKind::Disconnect, id, 1);
                            }
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
            if self.live > 0 {
                for injected in out {
                    let wire = match injected.corrupt {
                        Some(entropy) => encode_corrupted(&injected.frame, entropy),
                        None => injected.frame.encode_shared(),
                    };
                    self.enqueue_all(&wire, &mut stats);
                }
            }
        } else if self.live > 0 {
            // Encode once per slot; every backlog shares the bytes.
            let wire = frame.encode_shared();
            self.enqueue_all(&wire, &mut stats);
        }
        // The offset wraps to 0 where an unstaggered cadence would flush
        // everything; stripe 0 flushes there, the rest `stride` apart.
        self.cadence = (self.cadence + 1) % self.flush_every;
        let stride = self.flush_every / self.stripes;
        let stripe = self.cadence / stride;
        if self.cadence.is_multiple_of(stride) && stripe < self.stripes {
            self.flush_ready(stripe, self.stripes, &mut stats);
        }
        let m = crate::obs::tcp();
        m.bytes.add(stats.bytes);
        m.frames_dropped.add(stats.dropped);
        m.disconnects.add(stats.disconnected);
        m.connections.set(self.live as i64);
        crate::obs::evented().slab_occupancy.set(self.live as i64);
        stats
    }

    fn active_clients(&self) -> usize {
        self.live
    }

    fn flush(&mut self) -> DeliveryStats {
        let mut stats = DeliveryStats::default();
        self.flush_ready(0, 1, &mut stats);
        crate::obs::tcp().disconnects.add(stats.disconnected);
        stats
    }

    fn take_requests(&mut self, out: &mut Vec<PullRequest>) {
        // Run one event-loop turn first so requests written since the
        // last broadcast are parsed before the engine arbitrates.
        let mut stats = DeliveryStats::default();
        self.pump(Some(Duration::ZERO), &mut stats);
        out.append(&mut self.pending_requests);
    }

    fn set_hello(&mut self, hello: Option<Frame>) {
        self.hello = hello.map(|f| f.encode_shared());
    }

    fn finish(&mut self) -> DeliveryStats {
        let mut stats = DeliveryStats::default();
        // Drain what the sockets will take, bounded by the grace: a peer
        // that stopped reading cannot wedge shutdown.
        let deadline = Instant::now() + self.cfg.drain_grace;
        loop {
            let mut remaining = self.flush_ready(0, 1, &mut stats);
            remaining |= self.slab.iter().flatten().any(|c| !c.backlog.is_empty());
            if !remaining || Instant::now() >= deadline {
                break;
            }
            // Armed connections drain via their writable events.
            self.pump(Some(Duration::from_millis(1)), &mut stats);
        }
        // Hang up on connections still in the accept queue (a client
        // reconnecting as the run ends): left there, they stay open and
        // block that client's read until the transport is dropped. This
        // runs before the slab is severed, so the reconnects that severing
        // provokes stay queued for a restarted engine instead of being cut
        // off again; the listener itself stays bound.
        while let Ok((stream, _)) = self.listener.accept() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for slot in &mut self.slab {
            if let Some(conn) = slot.take() {
                let _ = self.poll.deregister(&conn.stream);
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
        self.slab.clear();
        self.free.clear();
        self.pending_free.clear();
        self.live = 0;
        crate::obs::tcp().connections.set(0);
        crate::obs::evented().slab_occupancy.set(0);
        // Delivery was accounted per broadcast; only terminal
        // disconnections surface here.
        stats
    }
}

impl Drop for EventedTcpTransport {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp_client::TcpFrameReader;
    use crate::transport::PagePayloads;
    use bdisk_sched::{PageId, Slot};

    fn cfg() -> TcpTransportConfig {
        TcpTransportConfig::default()
    }

    #[test]
    fn loopback_round_trip_carries_payloads() {
        let mut transport = EventedTcpTransport::bind(cfg()).unwrap();
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
        let mut transport = EventedTcpTransport::bind(cfg()).unwrap();
        let addr = transport.local_addr();
        let reader = TcpFrameReader::connect(addr).unwrap();
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        drop(reader);
        // Keep broadcasting until the hangup event surfaces.
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

    #[test]
    fn wait_for_clients_times_out_promptly() {
        let mut transport = EventedTcpTransport::bind(cfg()).unwrap();
        let timeout = Duration::from_millis(100);
        let start = Instant::now();
        assert!(!transport.wait_for_clients(1, timeout));
        let elapsed = start.elapsed();
        assert!(elapsed >= timeout, "returned before the deadline");
        assert!(
            elapsed < timeout + Duration::from_millis(100),
            "timeout overshot: {elapsed:?}"
        );
    }

    #[test]
    fn corrupt_frames_are_skipped_and_counted() {
        let mut transport = EventedTcpTransport::bind(cfg()).unwrap();
        let addr = transport.local_addr();
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

    #[test]
    fn drop_newest_applies_when_backlog_and_socket_fill() {
        let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
            queue_capacity: 2,
            drain_grace: Duration::from_millis(100),
            ..TcpTransportConfig::default()
        })
        .unwrap();
        let addr = transport.local_addr();
        // A tuner that connects and never reads: the kernel buffers fill,
        // flushes hit WouldBlock, the 2-frame backlog fills, and newest
        // frames start dropping.
        let stalled = TcpFrameReader::connect(addr).unwrap();
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        let payloads = PagePayloads::generate(2, 256 * 1024);
        let mut dropped = 0;
        for seq in 0..64u64 {
            dropped += transport
                .broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32 % 2))))
                .dropped;
        }
        assert!(dropped > 0, "stalled consumer never hit DropNewest");
        assert_eq!(transport.active_clients(), 1, "DropNewest never evicts");
        drop(transport);
        drop(stalled);
    }

    #[test]
    fn disconnect_policy_evicts_slow_consumer() {
        let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
            queue_capacity: 2,
            backpressure: Backpressure::Disconnect,
            drain_grace: Duration::from_millis(100),
            ..TcpTransportConfig::default()
        })
        .unwrap();
        let addr = transport.local_addr();
        let stalled = TcpFrameReader::connect(addr).unwrap();
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        let payloads = PagePayloads::generate(2, 256 * 1024);
        let mut disconnected = 0;
        for seq in 0..64u64 {
            disconnected += transport
                .broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32 % 2))))
                .disconnected;
        }
        assert_eq!(disconnected, 1, "slow consumer evicted exactly once");
        assert_eq!(transport.active_clients(), 0);
        drop(stalled);
    }

    /// A lagging consumer's ring grows past its flush-cadence start, and
    /// backpressure still cuts in at exactly `queue_capacity` queued frames.
    #[test]
    fn backpressure_fires_at_exactly_queue_capacity_after_the_ring_grows() {
        const CAPACITY: usize = 200;
        for backpressure in [Backpressure::DropNewest, Backpressure::Disconnect] {
            let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
                queue_capacity: CAPACITY,
                backpressure,
                drain_grace: Duration::from_millis(100),
                ..TcpTransportConfig::default()
            })
            .unwrap();
            let stalled = TcpFrameReader::connect(transport.local_addr()).unwrap();
            assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
            assert!(CAPACITY > transport.flush_every + 1);
            // The never-reading tuner's socket fills, then its backlog.
            let payloads = PagePayloads::generate(2, 64 * 1024);
            let mut fired_at = None;
            for seq in 0..(4 * CAPACITY as u64) {
                let queued = transport
                    .slab
                    .iter()
                    .flatten()
                    .map(|c| c.backlog.len())
                    .sum();
                assert!(queued <= CAPACITY, "backlog overshot: {queued}");
                let stats =
                    transport.broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32 % 2))));
                if stats.dropped + stats.disconnected > 0 {
                    fired_at = Some(queued);
                    break;
                }
            }
            assert_eq!(fired_at, Some(CAPACITY), "{backpressure:?}");
            drop(transport);
            drop(stalled);
        }
    }

    #[test]
    fn fresh_connections_do_not_reserve_queue_capacity() {
        let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
            queue_capacity: 16_384,
            ..TcpTransportConfig::default()
        })
        .unwrap();
        let addr = transport.local_addr();
        let readers: Vec<_> = (0..4)
            .map(|_| TcpFrameReader::connect(addr).unwrap())
            .collect();
        assert!(transport.wait_for_clients(readers.len(), Duration::from_secs(5)));
        for conn in transport.slab.iter().flatten() {
            assert!(
                conn.backlog.capacity() <= transport.flush_every + 1,
                "fresh ring holds {} slots at flush cadence {}",
                conn.backlog.capacity(),
                transport.flush_every
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-frame vectored write")]
    fn max_coalesce_above_the_vectored_write_rejected_at_bind() {
        let _ = EventedTcpTransport::bind(TcpTransportConfig {
            max_coalesce: MAX_BATCH + 1,
            ..TcpTransportConfig::default()
        });
    }

    /// Airs three cadences to 37 never-reading peers (not a multiple of
    /// the 16 stripes) and reads the stagger off the backlogs: tiny frames
    /// fit the socket buffers, so a backlog is empty right after a
    /// broadcast exactly when that broadcast flushed it.
    fn check_stagger(queue_capacity: usize, want_stripes: usize) {
        const CONNS: usize = 37;
        const CADENCES: usize = 3;
        let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
            queue_capacity,
            ..cfg()
        })
        .unwrap();
        let peers: Vec<_> = (0..CONNS)
            .map(|_| TcpStream::connect(transport.local_addr()).unwrap())
            .collect();
        assert!(transport.wait_for_clients(CONNS, Duration::from_secs(5)));
        assert_eq!(transport.slab.len(), CONNS);
        assert_eq!(transport.stripes, want_stripes);
        let every = transport.flush_every;
        let most_per_broadcast = CONNS.div_ceil(want_stripes);
        let mut flushed_at = vec![Vec::new(); CONNS];
        for seq in 0..(CADENCES * every) as u64 {
            let stats = transport.broadcast(Frame::bare(seq, Slot::Empty));
            assert_eq!(stats.delivered, CONNS as u64);
            let mut written = 0;
            for (idx, conn) in transport.slab.iter().enumerate() {
                let backlog = conn.as_ref().expect("peer still connected").backlog.len();
                assert!(
                    backlog <= every,
                    "connection {idx} holds {backlog} > {every}"
                );
                if backlog == 0 {
                    written += 1;
                    flushed_at[idx].push(seq);
                }
            }
            assert!(
                written <= most_per_broadcast,
                "broadcast {seq} wrote {written} connections"
            );
        }
        for (idx, at) in flushed_at.iter().enumerate() {
            assert_eq!(at.len(), CADENCES, "connection {idx} flushed at {at:?}");
            assert!(
                at.windows(2).all(|w| w[1] - w[0] == every as u64),
                "connection {idx} flushed at {at:?}, cadence {every}"
            );
        }
        transport.flush();
        assert!(transport
            .slab
            .iter()
            .flatten()
            .all(|c| c.backlog.is_empty()));
        drop(peers);
    }

    #[test]
    fn flush_cadence_is_staggered_over_sixteen_stripes() {
        check_stagger(TcpTransportConfig::default().queue_capacity, 16);
    }

    /// A queue of 8 caps the cadence at 4 broadcasts, so 4 stripes.
    #[test]
    fn short_cadence_staggers_over_fewer_stripes() {
        check_stagger(8, 4);
    }

    #[test]
    fn upstream_requests_reach_take_requests() {
        let mut transport = EventedTcpTransport::bind(cfg()).unwrap();
        let addr = transport.local_addr();
        let mut reader = TcpFrameReader::connect(addr).unwrap();
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        reader.send_request(7, PageId(42), 100).unwrap();
        reader.send_request(7, PageId(43), 101).unwrap();
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while out.len() < 2 && Instant::now() < deadline {
            transport.take_requests(&mut out);
        }
        assert_eq!(
            out,
            vec![
                PullRequest {
                    user: 7,
                    page: PageId(42),
                    min_seq: 100
                },
                PullRequest {
                    user: 7,
                    page: PageId(43),
                    min_seq: 101
                },
            ]
        );
        assert!(transport.upstream_bytes() >= 48);
        assert_eq!(transport.upstream_rejected_bytes(), 0);
    }

    /// The legacy-client pin: a push-only tuner that writes garbage
    /// upstream keeps its broadcast subscription — the bytes are counted
    /// and rejected, the connection lives, and frames still flow down.
    #[test]
    fn garbage_upstream_bytes_never_kill_the_connection() {
        let mut transport = EventedTcpTransport::bind(cfg()).unwrap();
        let addr = transport.local_addr();
        let mut legacy = std::net::TcpStream::connect(addr).unwrap();
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        legacy.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        legacy.write_all(&[0xFF; 1000]).unwrap();
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while transport.upstream_bytes() < 1018 && Instant::now() < deadline {
            transport.take_requests(&mut out);
        }
        assert!(out.is_empty(), "garbage parsed as requests: {out:?}");
        assert_eq!(transport.active_clients(), 1, "garbage killed the conn");
        assert!(transport.upstream_rejected_bytes() > 0);
        // The broadcast still reaches the noisy client.
        let payloads = PagePayloads::generate(2, 16);
        transport.broadcast(payloads.frame(0, Slot::Page(PageId(1))));
        transport.finish();
        let mut reader = TcpFrameReader::from_stream(legacy).unwrap();
        let frame = reader.recv().unwrap().expect("frame delivered");
        assert_eq!(frame.slot, Slot::Page(PageId(1)));
    }

    #[test]
    fn slab_slots_are_recycled_across_reconnects() {
        let mut transport = EventedTcpTransport::bind(cfg()).unwrap();
        let addr = transport.local_addr();
        for _round in 0..3 {
            let r1 = TcpFrameReader::connect(addr).unwrap();
            let r2 = TcpFrameReader::connect(addr).unwrap();
            assert!(transport.wait_for_clients(2, Duration::from_secs(5)));
            drop(r1);
            drop(r2);
            let deadline = Instant::now() + Duration::from_secs(5);
            while transport.active_clients() > 0 && Instant::now() < deadline {
                transport.broadcast(Frame::bare(0, Slot::Empty));
            }
            assert_eq!(transport.active_clients(), 0);
        }
        // Two live connections at a time, ever: the slab never needed more
        // than a handful of slots (freed indices are recycled, one pump
        // late).
        assert!(
            transport.slab.len() <= 4,
            "slab grew to {} slots for 2 concurrent clients",
            transport.slab.len()
        );
    }

    /// Shutdown is bounded by the drain grace, not by the peers: dropping
    /// the transport while a never-reading peer still has frames queued
    /// (its kernel buffers full) returns promptly.
    #[test]
    fn shutdown_returns_promptly_past_a_stalled_peer() {
        let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
            queue_capacity: 8,
            drain_grace: Duration::from_millis(200),
            ..TcpTransportConfig::default()
        })
        .unwrap();
        let stalled = TcpFrameReader::connect(transport.local_addr()).unwrap();
        assert!(transport.wait_for_clients(1, Duration::from_secs(5)));
        let payloads = PagePayloads::generate(4, 16 * 1024);
        for seq in 0..512u64 {
            transport.broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32 % 4))));
        }
        assert!(
            transport
                .slab
                .iter()
                .flatten()
                .any(|c| !c.backlog.is_empty()),
            "the stalled peer's backlog drained; the grace bound went untested"
        );
        let start = Instant::now();
        drop(transport);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "shutdown took {elapsed:?} (drain grace is 200ms)"
        );
        drop(stalled);
    }

    /// A connection still in the listener's accept queue is closed by
    /// `finish`, so its client reads end-of-stream instead of blocking for
    /// as long as the transport lives.
    #[test]
    fn finish_hangs_up_on_connections_never_polled() {
        let mut transport = EventedTcpTransport::bind(cfg()).unwrap();
        let mut late = TcpStream::connect(transport.local_addr()).unwrap();
        transport.finish();
        late.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(
            late.read(&mut buf).expect("hung up, not left open"),
            0,
            "end of stream"
        );
    }
}
