//! The **client** half of the TCP broadcast: a frame reader that decodes
//! the length-prefixed feed (and writes upstream pull requests), plus a
//! self-healing feed that reconnects with seeded, capped backoff.
//!
//! The server half is [`crate::EventedTcpTransport`].

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bdisk_obs::journal::{event, EventKind};
use bdisk_sched::PageId;

use crate::faults::SplitMix;
use crate::transport::{Frame, FrameError};
use crate::upstream::encode_request;

/// Upper bound on one wire frame's body length. The length prefix is
/// attacker-visible plaintext (it sits outside the CRC-protected body), so
/// a reader must never trust it as an allocation size: a single forged
/// 32-bit prefix could otherwise demand a 4 GiB buffer. Real frames are a
/// 22-byte header plus one page or repair symbol, so 16 MiB is generous
/// headroom for any plausible page size while keeping a hostile prefix
/// harmless.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

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
}
