//! Tuner fleets: thousands of broadcast receivers multiplexed on one
//! drainer thread, for fan-out benchmarks and smoke tests.
//!
//! A [`TunerFleet`] opens `n` loopback connections to a broadcast server
//! and drains all of them from a single thread with one [`mini_mio::Poll`]
//! — the receiving mirror of the evented transport's design, and the only
//! way to put 10k+ live connections on one core (a thread-per-tuner fleet
//! would need 10k stacks and a scheduler meltdown). Each tuner
//! incrementally reassembles the length-prefixed wire format, verifies
//! every frame's CRC (via [`crate::transport::body_crc_ok`], without
//! materializing a [`crate::Frame`]), and tracks sequence gaps. The fleet
//! runs until the server closes the connections, then reports per-tuner
//! and aggregate statistics.
//!
//! This is deliberately *not* a [`crate::LiveClient`] fleet: tuners here
//! measure the wire (frames, bytes, integrity, continuity), not cache
//! policy response times. Bench code wants the transport's fan-out
//! ceiling, and driving full client cores would measure the clients
//! instead.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bdisk_sched::PageId;
use mini_mio::{Events, Interest, Poll, Token};

use crate::transport::{body_crc_ok, LEN_PREFIX};
use crate::upstream::encode_request;

/// Upstream-request behaviour for a requester fleet
/// ([`TunerFleet::launch_requesters`]): each tuner writes one pull
/// request up its own connection after every `every` intact frames it
/// receives, cycling through `pages` distinct pages. The cadence is
/// frame-driven rather than timer-driven so request volume is
/// deterministic per frames broadcast — what a fan-out bench wants when
/// it asserts on totals.
#[derive(Debug, Clone, Copy)]
pub struct RequesterConfig {
    /// Send one request per `every` intact frames received (must be ≥ 1).
    pub every: u64,
    /// Requested pages cycle over `0..pages` (must be ≥ 1), offset by the
    /// tuner's index so a fleet spreads its requests across pages.
    pub pages: u32,
}

/// What one tuner saw over its connection's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct TunerStats {
    /// Intact frames received (CRC verified).
    pub frames: u64,
    /// Wire bytes received (length prefixes included).
    pub bytes: u64,
    /// Frames discarded because their CRC failed.
    pub crc_errors: u64,
    /// Contiguous sequence-number gaps observed (dropped or erased spans).
    pub gaps: u64,
    /// Highest frame sequence number seen, if any frame arrived.
    pub last_seq: Option<u64>,
    /// Upstream pull requests written (requester fleets only).
    pub requests: u64,
}

/// Aggregate report for a completed fleet.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Per-tuner statistics, in connection order.
    pub tuners: Vec<TunerStats>,
}

impl FleetReport {
    /// Intact frames received across the whole fleet.
    pub fn total_frames(&self) -> u64 {
        self.tuners.iter().map(|t| t.frames).sum()
    }

    /// Wire bytes received across the whole fleet.
    pub fn total_bytes(&self) -> u64 {
        self.tuners.iter().map(|t| t.bytes).sum()
    }

    /// CRC-failed frames discarded across the whole fleet.
    pub fn total_crc_errors(&self) -> u64 {
        self.tuners.iter().map(|t| t.crc_errors).sum()
    }

    /// Tuners that observed at least one sequence gap.
    pub fn tuners_with_gaps(&self) -> usize {
        self.tuners.iter().filter(|t| t.gaps > 0).count()
    }

    /// Smallest per-tuner intact-frame count (0 for an empty fleet).
    pub fn min_frames(&self) -> u64 {
        self.tuners.iter().map(|t| t.frames).min().unwrap_or(0)
    }

    /// Upstream pull requests written across the whole fleet.
    pub fn total_requests(&self) -> u64 {
        self.tuners.iter().map(|t| t.requests).sum()
    }
}

/// Per-tuner reassembly state inside the drainer.
struct Tuner {
    stream: TcpStream,
    rx: Reassembler,
    stats: TunerStats,
    open: bool,
    /// Upstream request cadence, when this is a requester fleet.
    requester: Option<RequesterConfig>,
    /// Encoded request bytes not yet accepted by the (nonblocking)
    /// socket. Flushed opportunistically on every drain turn.
    outbox: Vec<u8>,
}

impl TunerStats {
    /// Accounts every complete frame at the head of `buf` and returns how
    /// many bytes were consumed (a trailing partial frame stays).
    fn consume(&mut self, buf: &[u8]) -> usize {
        let mut offset = 0usize;
        loop {
            let rest = &buf[offset..];
            if rest.len() < LEN_PREFIX {
                break;
            }
            let len = u32::from_le_bytes(rest[..LEN_PREFIX].try_into().unwrap()) as usize;
            if rest.len() < LEN_PREFIX + len {
                break;
            }
            let body = &rest[LEN_PREFIX..LEN_PREFIX + len];
            self.bytes += (LEN_PREFIX + len) as u64;
            if body_crc_ok(body) {
                let seq = u64::from_le_bytes(body[..8].try_into().unwrap());
                if let Some(last) = self.last_seq {
                    if seq > last + 1 {
                        self.gaps += 1;
                    }
                }
                self.last_seq = Some(self.last_seq.map_or(seq, |l| l.max(seq)));
                self.frames += 1;
            } else {
                self.crc_errors += 1;
            }
            offset += LEN_PREFIX + len;
        }
        offset
    }
}

/// Incremental reassembly of one connection's length-prefixed frames.
///
/// Frames parse straight out of each read's buffer; only a frame that
/// straddles two reads is copied, and only its own bytes. So `pending`
/// never holds more than one frame, whatever the read size.
#[derive(Debug, Default)]
struct Reassembler {
    /// The leading bytes of the one frame cut off by the end of a read.
    pending: Vec<u8>,
}

impl Reassembler {
    /// Accounts every frame `chunk` completes into `stats` and keeps the
    /// trailing fragment, if any.
    fn ingest(&mut self, stats: &mut TunerStats, mut chunk: &[u8]) {
        if !self.pending.is_empty() {
            // Copy just the bytes that complete the buffered frame: the
            // rest of its length prefix if that was cut, then its body.
            if self.pending.len() < LEN_PREFIX {
                let take = (LEN_PREFIX - self.pending.len()).min(chunk.len());
                self.pending.extend_from_slice(&chunk[..take]);
                chunk = &chunk[take..];
            }
            let Some(frame_len) = self.pending_frame_len() else {
                return;
            };
            let take = (frame_len - self.pending.len()).min(chunk.len());
            self.keep(&chunk[..take]);
            chunk = &chunk[take..];
            if self.pending.len() < frame_len {
                return;
            }
            let consumed = stats.consume(&self.pending);
            debug_assert_eq!(consumed, frame_len);
            self.pending.clear();
        }
        let consumed = stats.consume(chunk);
        self.keep(&chunk[consumed..]);
    }

    /// Wire length of the buffered frame, once its length prefix is in.
    fn pending_frame_len(&self) -> Option<usize> {
        let prefix = self.pending.get(..LEN_PREFIX)?.try_into();
        Some(LEN_PREFIX + u32::from_le_bytes(prefix.expect("a LEN_PREFIX-byte slice")) as usize)
    }

    /// Appends part of the buffered frame, growing the buffer to exactly
    /// what it holds (never the doubling `extend` would pick), so its
    /// capacity stays within one frame.
    fn keep(&mut self, bytes: &[u8]) {
        self.pending.reserve_exact(bytes.len());
        self.pending.extend_from_slice(bytes);
    }
}

impl Tuner {
    /// Enqueues any requests the frame count now owes (one per `every`
    /// frames) and flushes the outbox as far as the socket will take it.
    /// `user` is the tuner's fleet index — the identity the broker's
    /// arbiter sees.
    fn pump_requests(&mut self, user: u32) {
        let Some(cfg) = self.requester else { return };
        let due = self.stats.frames / cfg.every.max(1);
        while self.stats.requests < due {
            let page = PageId((user + self.stats.requests as u32) % cfg.pages.max(1));
            let min_seq = self.stats.last_seq.map_or(0, |s| s + 1);
            self.outbox
                .extend_from_slice(&encode_request(user, page, min_seq));
            self.stats.requests += 1;
        }
        // Nonblocking flush: a full socket buffer just leaves the bytes
        // queued; the next readable turn (frames keep arriving) retries.
        while !self.outbox.is_empty() {
            match self.stream.write(&self.outbox) {
                Ok(0) => break,
                Ok(n) => {
                    self.outbox.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // A write error means the connection is dying; the read
                // side will observe and retire it.
                Err(_) => {
                    self.outbox.clear();
                    break;
                }
            }
        }
    }
}

/// A fleet of concurrent broadcast tuners drained by one thread.
///
/// [`TunerFleet::launch`] connects and starts draining immediately (so the
/// server's accept backlog never overflows under a 10k-connection storm);
/// [`TunerFleet::join`] blocks until the server has closed every
/// connection and returns the report.
pub struct TunerFleet {
    handle: JoinHandle<io::Result<FleetReport>>,
}

impl TunerFleet {
    /// Connects `n` tuners to `addr` and spawns the drainer thread.
    ///
    /// Connections are opened blocking (with retries — a connect storm can
    /// transiently overflow the accept backlog) and switched to
    /// nonblocking for the drain. Callers planning fleets beyond the
    /// process's file-descriptor limit should raise it first
    /// ([`mini_mio::raise_nofile_limit`]); each loopback tuner costs two
    /// descriptors (client end + server end).
    pub fn launch(addr: SocketAddr, n: usize) -> io::Result<TunerFleet> {
        let handle = std::thread::Builder::new()
            .name("tuner-fleet".into())
            .spawn(move || drain_fleet(addr, n, None))?;
        Ok(TunerFleet { handle })
    }

    /// Like [`TunerFleet::launch`], but every tuner also exercises the
    /// upstream backchannel: one pull request per
    /// [`RequesterConfig::every`] intact frames received, written up the
    /// same connection the broadcast arrives on. Tuner `i` identifies
    /// itself as user `i`.
    pub fn launch_requesters(
        addr: SocketAddr,
        n: usize,
        cfg: RequesterConfig,
    ) -> io::Result<TunerFleet> {
        let handle = std::thread::Builder::new()
            .name("tuner-fleet".into())
            .spawn(move || drain_fleet(addr, n, Some(cfg)))?;
        Ok(TunerFleet { handle })
    }

    /// Waits for the broadcast to end (server closes all connections) and
    /// returns what the fleet saw.
    pub fn join(self) -> io::Result<FleetReport> {
        self.handle
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("tuner fleet thread panicked")))
    }
}

/// Connects with retries: a storm of simultaneous connects can outrun the
/// listener's accept backlog, surfacing as refused/reset connections that
/// succeed moments later once the server's event loop catches up.
fn connect_with_retry(addr: SocketAddr) -> io::Result<TcpStream> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

fn drain_fleet(
    addr: SocketAddr,
    n: usize,
    requester: Option<RequesterConfig>,
) -> io::Result<FleetReport> {
    let mut poll = Poll::new()?;
    let mut events = Events::with_capacity(1024);
    let mut tuners: Vec<Tuner> = Vec::with_capacity(n);
    let mut scratch = vec![0u8; 64 * 1024];
    let mut open = 0usize;
    for i in 0..n {
        let stream = connect_with_retry(addr)?;
        stream.set_nonblocking(true)?;
        poll.register(&stream, Token(i), Interest::READABLE)?;
        tuners.push(Tuner {
            stream,
            rx: Reassembler::default(),
            stats: TunerStats::default(),
            open: true,
            requester,
            outbox: Vec::new(),
        });
        open += 1;
        // Interleave connecting with draining: frames already broadcast
        // to earlier tuners must not pile up in kernel buffers while the
        // tail of a 10k fleet is still connecting.
        if i % 64 == 63 {
            drain_once(
                &mut poll,
                &mut events,
                &mut tuners,
                &mut scratch,
                &mut open,
                Some(Duration::ZERO),
            )?;
        }
    }
    while open > 0 {
        drain_once(
            &mut poll,
            &mut events,
            &mut tuners,
            &mut scratch,
            &mut open,
            Some(Duration::from_millis(100)),
        )?;
    }
    Ok(FleetReport {
        tuners: tuners.into_iter().map(|t| t.stats).collect(),
    })
}

/// One poll turn: read every ready tuner dry, parse complete frames,
/// retire closed connections.
fn drain_once(
    poll: &mut Poll,
    events: &mut Events,
    tuners: &mut [Tuner],
    scratch: &mut [u8],
    open: &mut usize,
    timeout: Option<Duration>,
) -> io::Result<()> {
    poll.poll(events, timeout)?;
    for ev in events.iter() {
        let idx = ev.token().0;
        let Some(tuner) = tuners.get_mut(idx) else {
            continue;
        };
        if !tuner.open || !ev.is_readable() {
            continue;
        }
        loop {
            match tuner.stream.read(scratch) {
                Ok(0) => {
                    // Server closed: this tuner's broadcast is over.
                    let _ = poll.deregister(&tuner.stream);
                    tuner.open = false;
                    *open -= 1;
                    break;
                }
                Ok(read) => tuner.rx.ingest(&mut tuner.stats, &scratch[..read]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    let _ = poll.deregister(&tuner.stream);
                    tuner.open = false;
                    *open -= 1;
                    break;
                }
            }
        }
        if tuner.open {
            tuner.pump_requests(idx as u32);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp_evented::{EventedTcpTransport, TcpTransportConfig};
    use crate::transport::{PagePayloads, Transport};
    use bdisk_sched::{PageId, Slot};

    /// A stream of frames of mixed kinds and sizes, as the wire carries
    /// them, with the largest frame's wire length.
    fn frame_stream() -> (Vec<u8>, usize) {
        let payloads = PagePayloads::generate(8, 1000);
        let mut wire = Vec::new();
        let mut largest = 0;
        for seq in 0..40u64 {
            let slot = match seq % 5 {
                3 => Slot::Empty,
                _ => Slot::Page(PageId(seq as u32 % 8)),
            };
            // Skip some sequence numbers so the stream has gaps to count.
            let bytes = payloads.frame(seq * 2 - seq % 3, slot).encode();
            largest = largest.max(bytes.len());
            wire.extend_from_slice(&bytes);
        }
        // One damaged frame, so the CRC-failure count is exercised too.
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        (wire, largest)
    }

    fn stats_key(s: &TunerStats) -> (u64, u64, u64, u64, Option<u64>) {
        (s.frames, s.bytes, s.crc_errors, s.gaps, s.last_seq)
    }

    #[test]
    fn reassembly_is_split_invariant() {
        let (wire, _) = frame_stream();
        let mut whole = TunerStats::default();
        assert_eq!(whole.consume(&wire), wire.len());
        assert_eq!(whole.frames, 39);
        assert_eq!(whole.crc_errors, 1);
        assert!(whole.gaps > 0);
        // Two reads split at every byte offset.
        for cut in 0..=wire.len() {
            let mut rx = Reassembler::default();
            let mut stats = TunerStats::default();
            rx.ingest(&mut stats, &wire[..cut]);
            rx.ingest(&mut stats, &wire[cut..]);
            assert_eq!(stats_key(&stats), stats_key(&whole), "split at {cut}");
            assert!(rx.pending.is_empty());
        }
        // Reads of every small size, so frames straddle many reads and
        // length prefixes get cut too.
        for read in 1..=16 {
            let mut rx = Reassembler::default();
            let mut stats = TunerStats::default();
            for chunk in wire.chunks(read) {
                rx.ingest(&mut stats, chunk);
            }
            assert_eq!(stats_key(&stats), stats_key(&whole), "reads of {read}");
            assert!(rx.pending.is_empty());
        }
    }

    #[test]
    fn reassembly_buffers_at_most_one_frame() {
        let (frames, largest) = frame_stream();
        let mut wire = Vec::new();
        while wire.len() < 4 * 64 * 1024 {
            wire.extend_from_slice(&frames);
        }
        let mut rx = Reassembler::default();
        let mut stats = TunerStats::default();
        let mut cut_mid_frame = 0;
        for chunk in wire.chunks(64 * 1024) {
            rx.ingest(&mut stats, chunk);
            cut_mid_frame += usize::from(!rx.pending.is_empty());
            assert!(
                rx.pending.capacity() <= largest,
                "buffer grew to {} for {largest}-byte frames",
                rx.pending.capacity()
            );
        }
        assert!(cut_mid_frame > 0, "some 64 KiB read must end mid-frame");
        let mut whole = TunerStats::default();
        whole.consume(&wire);
        assert_eq!(stats_key(&stats), stats_key(&whole));
    }

    #[test]
    fn fleet_drains_every_frame_from_evented_transport() {
        let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
            queue_capacity: 4096,
            ..TcpTransportConfig::default()
        })
        .unwrap();
        let addr = transport.local_addr();
        let fleet = TunerFleet::launch(addr, 32).unwrap();
        assert!(transport.wait_for_clients(32, Duration::from_secs(10)));
        let payloads = PagePayloads::generate(8, 512);
        let slots = 200u64;
        for seq in 0..slots {
            transport.broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32 % 8))));
        }
        transport.finish();
        let report = fleet.join().unwrap();
        assert_eq!(report.tuners.len(), 32);
        assert_eq!(
            report.min_frames(),
            slots,
            "lossless run: no tuner lost a frame"
        );
        assert_eq!(report.total_frames(), slots * 32);
        assert_eq!(report.total_crc_errors(), 0);
        assert_eq!(report.tuners_with_gaps(), 0);
        let wire_len = payloads.frame(0, Slot::Page(PageId(0))).wire_len() as u64;
        assert_eq!(report.total_bytes(), slots * 32 * wire_len);
    }

    #[test]
    fn requester_fleet_requests_reach_the_server() {
        let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
            queue_capacity: 4096,
            ..TcpTransportConfig::default()
        })
        .unwrap();
        let addr = transport.local_addr();
        let n = 8usize;
        let cfg = RequesterConfig { every: 4, pages: 8 };
        let fleet = TunerFleet::launch_requesters(addr, n, cfg).unwrap();
        assert!(transport.wait_for_clients(n, Duration::from_secs(10)));
        let payloads = PagePayloads::generate(8, 256);
        let slots = 64u64;
        for seq in 0..slots {
            transport.broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32 % 8))));
        }
        // One request per tuner per 4 frames, surfacing as the tuners
        // digest the broadcast.
        let expected = n as u64 * (slots / cfg.every);
        let mut requests = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while (requests.len() as u64) < expected && std::time::Instant::now() < deadline {
            transport.take_requests(&mut requests);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(requests.len() as u64, expected);
        assert!(requests.iter().all(|r| r.user < n as u32 && r.page.0 < 8));
        transport.finish();
        let report = fleet.join().unwrap();
        assert_eq!(report.total_requests(), expected);
        assert_eq!(report.min_frames(), slots);
    }

    #[test]
    fn fleet_counts_gaps_and_crc_failures() {
        use crate::faults::FaultPlan;
        let mut transport = EventedTcpTransport::bind(TcpTransportConfig {
            queue_capacity: 4096,
            ..TcpTransportConfig::default()
        })
        .unwrap();
        transport.set_fault_plan(FaultPlan {
            seed: 7,
            erasure: 0.2,
            corruption: 0.1,
            ..FaultPlan::none()
        });
        let addr = transport.local_addr();
        let fleet = TunerFleet::launch(addr, 4).unwrap();
        assert!(transport.wait_for_clients(4, Duration::from_secs(10)));
        let payloads = PagePayloads::generate(8, 128);
        for seq in 0..500u64 {
            transport.broadcast(payloads.frame(seq, Slot::Page(PageId(seq as u32 % 8))));
        }
        let counts = transport.fault_counts();
        transport.finish();
        let report = fleet.join().unwrap();
        assert!(counts.erased > 0 && counts.corrupted > 0);
        // Every tuner saw the same faulted stream: erasures surface as
        // sequence gaps, corruption as CRC discards.
        assert_eq!(report.tuners_with_gaps(), 4);
        assert_eq!(report.total_crc_errors(), counts.corrupted * 4);
        assert!(report.min_frames() > 0);
    }
}
