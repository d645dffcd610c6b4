//! The **client** half of the TCP broadcast: a frame reader that feeds
//! the socket's bytes through the one wire parser,
//! [`crate::transport::FrameStream`] (and writes upstream pull requests),
//! plus a self-healing feed that reconnects with seeded, capped backoff.
//!
//! The server half is [`crate::EventedTcpTransport`].

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bdisk_obs::journal::{event, EventKind};
use bdisk_sched::PageId;

use crate::faults::SplitMix;
use crate::transport::{Frame, FrameError, FrameStream};
use crate::upstream::encode_request;

/// Client-side frame reader: connects and decodes the length-prefixed feed.
///
/// Frames whose CRC fails verification are *discarded and counted*, never
/// surfaced: the receiver treats a damaged frame exactly like an erased
/// one and recovers the page at its next periodic broadcast.
pub struct TcpFrameReader {
    /// The socket behind one reusable read buffer.
    stream: BufReader<TcpStream>,
    frames: FrameStream,
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
        Ok(Self {
            stream: BufReader::with_capacity(64 * 1024, stream),
            frames: FrameStream::default(),
            corrupt: 0,
        })
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
        self.stream
            .get_mut()
            .write_all(&encode_request(user, page, min_seq))
    }

    /// Reads the next intact frame, silently skipping CRC failures;
    /// `Ok(None)` at the end of the stream, even mid-frame. Frames already
    /// read are returned before the socket is read again.
    pub fn recv(&mut self) -> io::Result<Option<Frame>> {
        loop {
            let chunk = match self.stream.fill_buf() {
                Ok([]) => return Ok(None),
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return Ok(None),
                Err(e) => return Err(e),
            };
            let mut input = chunk;
            let next = match self.frames.next(&mut input) {
                Some(Ok(view)) => Some(Ok(view.to_frame())),
                // Damaged in flight. Framing is intact (the length prefix
                // is outside the faultable body), so skip this frame; the
                // sequence gap it leaves is the client's recovery signal.
                Some(Err(FrameError::Corrupt { .. })) => {
                    self.corrupt += 1;
                    None
                }
                // A short body, or an over-bound prefix from a hostile or
                // desynchronized peer.
                Some(Err(e)) => Some(Err(io::Error::new(io::ErrorKind::InvalidData, e))),
                None => None,
            };
            let used = chunk.len() - input.len();
            self.stream.consume(used);
            if let Some(frame) = next {
                return frame.map(Some);
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
    }

    #[test]
    fn length_prefix_at_the_bound_is_read_not_rejected() {
        // The bound is inclusive: a MAX_FRAME_LEN prefix is a frame in
        // progress, so a peer that hangs up inside it is a plain end of
        // stream. One byte more is refused on the prefix alone.
        use crate::transport::MAX_FRAME_LEN;
        use std::net::TcpListener;
        for (len, rejected) in [(MAX_FRAME_LEN, false), (MAX_FRAME_LEN + 1, true)] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                stream.write_all(&(len as u32).to_le_bytes()).unwrap();
                let _ = stream.write_all(&[0u8; 4096]);
            });
            let mut reader = TcpFrameReader::connect(addr).unwrap();
            match reader.recv() {
                Ok(None) => assert!(!rejected, "{len} was not rejected"),
                Err(e) => {
                    assert!(rejected, "{len} was rejected: {e}");
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    assert!(
                        e.to_string().contains("exceeds bound"),
                        "unexpected error: {e}"
                    );
                }
                Ok(Some(frame)) => panic!("{len} yielded {frame:?}"),
            }
            server.join().unwrap();
        }
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
