//! Tuner fleets: thousands of broadcast receivers multiplexed on one
//! drainer thread, for fan-out benchmarks and smoke tests.
//!
//! A [`TunerFleet`] opens `n` loopback connections to a broadcast server
//! and drains all of them from a single thread with one [`mini_mio::Poll`]
//! — the receiving mirror of the evented transport's design, and the only
//! way to put 10k+ live connections on one core (a thread-per-tuner fleet
//! would need 10k stacks and a scheduler meltdown). Each tuner feeds its
//! reads through its own [`FrameStream`] — the one wire parser, which
//! verifies every frame's CRC in place and bounds the length prefix — and
//! tracks sequence gaps. A tuner whose peer sends an over-bound prefix is
//! retired like one whose read failed. The fleet runs until every
//! connection is closed, then reports per-tuner and aggregate statistics.
//!
//! This is deliberately *not* a [`crate::LiveClient`] fleet: tuners here
//! measure the wire (frames, bytes, integrity, continuity), not cache
//! policy response times. Bench code wants the transport's fan-out
//! ceiling, and driving full client cores would measure the clients
//! instead.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bdisk_sched::PageId;
use mini_mio::{Events, Interest, Poll, Token};

use crate::transport::{FrameError, FrameStream};
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

/// Per-tuner state inside the drainer.
struct Tuner {
    stream: TcpStream,
    frames: FrameStream,
    stats: TunerStats,
    open: bool,
    /// Upstream request cadence, when this is a requester fleet.
    requester: Option<RequesterConfig>,
    /// Encoded request bytes not yet accepted by the (nonblocking)
    /// socket. Flushed opportunistically on every drain turn.
    outbox: Vec<u8>,
}

impl TunerStats {
    /// Accounts every frame `chunk` completes on `frames`; an over-bound
    /// length prefix is the one error that ends the connection.
    pub(crate) fn ingest(
        &mut self,
        frames: &mut FrameStream,
        mut chunk: &[u8],
    ) -> Result<(), FrameError> {
        while let Some(frame) = frames.next(&mut chunk) {
            match frame {
                Ok(view) => {
                    let seq = view.seq();
                    if self.last_seq.is_some_and(|last| seq > last + 1) {
                        self.gaps += 1;
                    }
                    self.last_seq = Some(self.last_seq.map_or(seq, |l| l.max(seq)));
                    self.frames += 1;
                }
                Err(e @ FrameError::TooLong { .. }) => return Err(e),
                Err(_) => self.crc_errors += 1,
            }
            self.bytes = frames.framed_bytes();
        }
        Ok(())
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
            frames: FrameStream::default(),
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
/// retire closed connections and those sent an over-bound prefix.
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
            let retire = match tuner.stream.read(scratch) {
                // Server closed: this tuner's broadcast is over.
                Ok(0) => true,
                // An over-bound length prefix: hang up, as on a read error.
                Ok(read) => tuner
                    .stats
                    .ingest(&mut tuner.frames, &scratch[..read])
                    .is_err(),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => true,
            };
            if retire {
                let _ = poll.deregister(&tuner.stream);
                let _ = tuner.stream.shutdown(Shutdown::Both);
                tuner.open = false;
                *open -= 1;
                break;
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

    #[test]
    fn fleet_retires_a_tuner_sent_an_over_bound_prefix() {
        // A raw socket posing as the server: one intact frame, then a
        // forged length prefix and filler, with the socket held open. The
        // tuner must hang up on the prefix alone, not buffer toward it.
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frame = PagePayloads::generate(8, 64).frame(0, Slot::Page(PageId(3)));
        let wire = frame.encode();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&wire).unwrap();
            stream.write_all(&(u32::MAX - 7).to_le_bytes()).unwrap();
            // The fleet may hang up mid-filler; that is the point.
            let _ = stream.write_all(&vec![0x5A; 256 * 1024]);
            // Wait (boundedly) for the fleet's end to close. Dropping the
            // socket after the timeout ends even a fleet that never hangs
            // up, so the test cannot hang.
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let read = stream.read(&mut [0u8; 1]);
            !matches!(&read, Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut))
        });
        let report = TunerFleet::launch(addr, 1).unwrap().join().unwrap();
        assert!(
            server.join().unwrap(),
            "the fleet kept the forged connection open"
        );
        let tuner = report.tuners[0];
        assert_eq!(tuner.frames, 1);
        assert_eq!(tuner.last_seq, Some(0));
        assert_eq!(tuner.crc_errors, 0);
        // Only the intact frame was framed; the forged one never began.
        assert_eq!(tuner.bytes, frame.wire_len() as u64);
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
        // Put every backlog on the air, as an idle engine does: the
        // staggered cadence has flushed only part of the fleet by now.
        transport.flush();
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
