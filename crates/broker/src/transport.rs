//! The wire model shared by all transports: frames, page payloads,
//! backpressure policy, and the [`Transport`] trait the engine drives.

use std::sync::Arc;
use std::sync::OnceLock;

use bdisk_sched::{PageId, RepairId, Slot};

/// Page-id sentinel marking an empty (padding) slot on the wire.
pub const EMPTY_SENTINEL: u32 = u32::MAX;

/// High bit of the page field marking a coded repair slot: the remaining
/// 31 bits carry the [`RepairId`]. Checked *after* [`EMPTY_SENTINEL`]
/// (which also has the high bit set), so page ids are limited to
/// `0..2^31` and repair ids to `0..2^31 - 1` on the wire. On wire v3
/// frames, repair ids are further limited to `0..2^31 - 2`: the value
/// `0x7FFF_FFFE` under the flag would collide with [`FENCE_SENTINEL`].
pub const REPAIR_FLAG: u32 = 0x8000_0000;

/// Page-id sentinel marking an epoch-fence frame (wire v3 only). v2
/// decoders never interpret this value — without [`CHANNEL_V3_FLAG`] set
/// it still reads as `Repair(0x7FFF_FFFE)`, preserving the pinned v2
/// repair-id space.
pub const FENCE_SENTINEL: u32 = 0xFFFF_FFFE;

/// High bit of the channel field marking a wire-v3 frame, whose header
/// carries a 4-byte plan epoch after the CRC. Real channel ids are
/// limited to `0..2^15` on the wire.
pub const CHANNEL_V3_FLAG: u16 = 0x8000;

/// Channel-field flag marking an on-demand pull airing ([`Slot::Pull`]):
/// the page field carries the page id unchanged, so a pull frame is
/// byte-identical to the equivalent push frame except for this one
/// (CRC-bound) bit. Composes with [`CHANNEL_V3_FLAG`]; with both flags
/// reserved, real channel ids are limited to `0..2^14` on the wire.
/// Push-only runs never set this bit, keeping them byte-identical to
/// pre-pull brokers.
pub const CHANNEL_PULL_FLAG: u16 = 0x4000;

/// Bytes of frame header following the length prefix:
/// 8 (seq) + 2 (channel) + 4 (page) + 4 (crc). Wire format v2: the frame
/// carries the broadcast channel it was aired on.
pub const HEADER_LEN: usize = 18;

/// Bytes of a wire-v3 frame header following the length prefix: the v2
/// header plus 4 (plan epoch). A frame is encoded as v3 exactly when it
/// must be — nonzero epoch or an epoch-fence slot — so epoch-0 runs stay
/// byte-identical to v2.
pub const HEADER_LEN_V3: usize = 22;

/// Bytes of the length prefix itself.
pub const LEN_PREFIX: usize = 4;

/// Byte offset of the CRC32 field within a frame body (after
/// seq + channel + page).
pub const CRC_OFFSET: usize = 14;

/// Upper bound on one wire frame's body length, which [`FrameStream`]
/// enforces for every receiver. The length prefix sits outside the CRC, so
/// it must never size an allocation: a forged prefix could demand 4 GiB.
/// Real frames are a 22-byte header plus one page or repair symbol, so
/// 16 MiB is generous headroom for any plausible page size.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The body is shorter than the fixed header.
    Truncated,
    /// The length prefix claims a body above [`MAX_FRAME_LEN`]: a hostile
    /// or desynchronized peer, fatal to a [`FrameStream`].
    TooLong {
        /// Body length the prefix claimed.
        len: usize,
    },
    /// The CRC32 over seq + channel + page + payload does not match the header's.
    /// The frame was damaged in flight; receivers discard it and recover
    /// the page at its next periodic broadcast.
    Corrupt {
        /// CRC carried in the frame header.
        expected: u32,
        /// CRC recomputed over the received bytes.
        found: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "malformed frame: body shorter than header"),
            FrameError::TooLong { len } => {
                write!(f, "frame length {len} exceeds bound {MAX_FRAME_LEN}")
            }
            FrameError::Corrupt { expected, found } => {
                write!(
                    f,
                    "frame CRC mismatch (header {expected:#010x}, computed {found:#010x})"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

fn empty_payload() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from(&[][..])))
}

/// One broadcast transmission: the engine's monotone slot counter, the slot
/// content, and the page payload bytes. Slot `seq` covers broadcast-unit
/// time `[seq, seq+1)`.
///
/// The payload is an `Arc<[u8]>` shared by every subscriber and every
/// transport queue entry: cloning a `Frame` bumps a refcount instead of
/// copying page bytes, which is what makes server-side fan-out O(1) per
/// subscriber in payload size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Absolute slot sequence number since the engine started.
    pub seq: u64,
    /// Broadcast channel this frame was aired on (0 on a single-channel
    /// plan).
    pub channel: u16,
    /// The page broadcast in this slot (or padding).
    pub slot: Slot,
    /// Plan epoch this frame belongs to. 0 for the initial plan — such
    /// frames encode as wire v2, byte-identical to pre-epoch brokers.
    pub epoch: u32,
    /// Shared page content (empty for padding slots).
    pub payload: Arc<[u8]>,
}

impl Frame {
    /// A payload-less frame (metadata only) on channel 0. Padding slots and
    /// unit tests use this; the shared empty buffer means no per-frame
    /// allocation.
    pub fn bare(seq: u64, slot: Slot) -> Self {
        Frame::bare_on(seq, 0, slot)
    }

    /// A payload-less frame on an explicit channel (epoch 0, wire v2).
    pub fn bare_on(seq: u64, channel: u16, slot: Slot) -> Self {
        Frame {
            seq,
            channel,
            slot,
            epoch: 0,
            payload: empty_payload(),
        }
    }

    /// An epoch-fence marker frame on `channel`: announces that plan
    /// `epoch`'s slot clock starts at absolute seq `base`. The epoch rides
    /// in the (CRC-bound) v3 header; the base rides in an 8-byte LE
    /// payload. Fences are out-of-band — they share the announcing tick's
    /// seq and never occupy a program slot.
    pub fn fence(seq: u64, channel: u16, epoch: u32, base: u64) -> Self {
        Frame {
            seq,
            channel,
            slot: Slot::EpochFence,
            epoch,
            payload: Arc::from(&base.to_le_bytes()[..]),
        }
    }

    /// Tags the frame with a plan epoch (builder style). Nonzero epochs
    /// encode as wire v3.
    pub fn with_epoch(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self
    }

    /// The slot-clock base carried by an epoch-fence frame, or `None`
    /// when this is not a fence or its payload is malformed.
    pub fn fence_base(&self) -> Option<u64> {
        if self.slot != Slot::EpochFence {
            return None;
        }
        let bytes: [u8; 8] = self.payload.as_ref().try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }

    /// True when this frame must carry the v3 header: it belongs to a
    /// nonzero epoch, or it is an epoch fence (meaningful even when
    /// announcing epoch 0 at a restart).
    fn is_v3(&self) -> bool {
        self.epoch != 0 || self.slot == Slot::EpochFence
    }

    /// Header bytes this frame encodes with ([`HEADER_LEN`] or
    /// [`HEADER_LEN_V3`]).
    pub fn header_len(&self) -> usize {
        if self.is_v3() {
            HEADER_LEN_V3
        } else {
            HEADER_LEN
        }
    }

    /// Total bytes this frame occupies on the wire (length prefix, header,
    /// payload).
    pub fn wire_len(&self) -> usize {
        LEN_PREFIX + self.header_len() + self.payload.len()
    }

    /// Serializes the frame as `[u32 len][u64 seq][u16 chan][u32 page]
    /// [u32 crc][payload]`, all little-endian (wire format v2). `len`
    /// counts every byte after itself; `page` is [`EMPTY_SENTINEL`] for
    /// padding slots; `crc` is CRC-32/ISO-HDLC over seq + channel + page +
    /// payload, so any single-bit damage to the body (outside the length
    /// prefix) is detected on decode.
    ///
    /// Frames in a nonzero epoch (and fence frames) encode as wire v3:
    /// the channel field carries [`CHANNEL_V3_FLAG`] and a 4-byte epoch
    /// follows the CRC — `[u32 len][u64 seq][u16 chan|V3][u32 page]
    /// [u32 crc][u32 epoch][payload]`. The CRC computation is version
    /// blind (everything but the CRC field itself), so the epoch bytes
    /// are CRC-bound with no format branch in the checksum.
    pub fn encode(&self) -> Vec<u8> {
        let v3 = self.is_v3();
        let len = (self.header_len() + self.payload.len()) as u32;
        let page = match self.slot {
            Slot::Page(p) => p.0,
            Slot::Empty => EMPTY_SENTINEL,
            Slot::Repair(r) => {
                debug_assert!(
                    !v3 || r.0 < FENCE_SENTINEL & !REPAIR_FLAG,
                    "repair id {} collides with the v3 fence sentinel",
                    r.0
                );
                REPAIR_FLAG | r.0
            }
            Slot::EpochFence => FENCE_SENTINEL,
            Slot::Pull(p) => {
                debug_assert!(
                    p.0 & REPAIR_FLAG == 0,
                    "page id {} overflows the 31-bit wire page space",
                    p.0
                );
                p.0
            }
        };
        debug_assert!(
            self.channel & (CHANNEL_V3_FLAG | CHANNEL_PULL_FLAG) == 0,
            "channel {} overflows the 14-bit wire channel space",
            self.channel
        );
        let mut chan = self.channel;
        if v3 {
            chan |= CHANNEL_V3_FLAG;
        }
        if matches!(self.slot, Slot::Pull(_)) {
            chan |= CHANNEL_PULL_FLAG;
        }
        let mut buf = Vec::with_capacity(self.wire_len());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&chan.to_le_bytes());
        buf.extend_from_slice(&page.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]); // crc placeholder
        if v3 {
            buf.extend_from_slice(&self.epoch.to_le_bytes());
        }
        buf.extend_from_slice(&self.payload);
        let crc = body_crc(&buf[LEN_PREFIX..]);
        buf[LEN_PREFIX + CRC_OFFSET..LEN_PREFIX + CRC_OFFSET + 4]
            .copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Serializes once into a shared buffer. The TCP transport encodes each
    /// slot exactly once with this and hands the same bytes to every
    /// connection's writer.
    pub fn encode_shared(&self) -> Arc<[u8]> {
        Arc::from(self.encode())
    }

    /// Parses and verifies a frame body (everything after the length
    /// prefix) into an owned frame: [`FrameView::parse`], then
    /// [`FrameView::to_frame`].
    pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
        FrameView::parse(body).map(|view| view.to_frame())
    }
}

/// CRC-32/ISO-HDLC over a frame body (seq + channel + page + payload),
/// skipping the CRC field itself (bytes `CRC_OFFSET..CRC_OFFSET + 4`).
fn body_crc(body: &[u8]) -> u32 {
    let mut state = crate::crc::crc32_init();
    state = crate::crc::crc32_update(state, &body[..CRC_OFFSET]);
    state = crate::crc::crc32_update(state, &body[HEADER_LEN..]);
    crate::crc::crc32_finish(state)
}

/// A borrowed, CRC-verified frame body: [`Frame`] without the copy. Each
/// field is read out of the body when asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    body: &'a [u8],
    header_len: usize,
}

impl<'a> FrameView<'a> {
    /// Verifies a frame body (everything after the length prefix):
    /// [`FrameError::Truncated`] when it is shorter than its header,
    /// [`FrameError::Corrupt`] when the CRC disagrees — any single-bit
    /// damage to the body is caught here. The channel field's high bit
    /// marks wire v3, whose header adds a 4-byte epoch and whose page
    /// field may carry [`FENCE_SENTINEL`] (on v2 it stays a repair id).
    pub fn parse(body: &'a [u8]) -> Result<Self, FrameError> {
        if body.len() < HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        let expected = u32::from_le_bytes(body[CRC_OFFSET..CRC_OFFSET + 4].try_into().unwrap());
        let found = body_crc(body);
        if found != expected {
            return Err(FrameError::Corrupt { expected, found });
        }
        let v3 = u16::from_le_bytes([body[8], body[9]]) & CHANNEL_V3_FLAG != 0;
        let header_len = if v3 { HEADER_LEN_V3 } else { HEADER_LEN };
        if body.len() < header_len {
            return Err(FrameError::Truncated);
        }
        Ok(FrameView { body, header_len })
    }

    fn field<const N: usize>(&self, at: usize) -> [u8; N] {
        self.body[at..at + N].try_into().expect("a header field")
    }

    /// Absolute slot sequence number.
    pub fn seq(&self) -> u64 {
        u64::from_le_bytes(self.field(0))
    }

    /// Broadcast channel, with the wire's flag bits cleared.
    pub fn channel(&self) -> u16 {
        u16::from_le_bytes(self.field(8)) & !(CHANNEL_V3_FLAG | CHANNEL_PULL_FLAG)
    }

    /// Plan epoch (0 on a v2 frame).
    pub fn epoch(&self) -> u32 {
        match self.header_len {
            HEADER_LEN_V3 => u32::from_le_bytes(self.field(HEADER_LEN)),
            _ => 0,
        }
    }

    /// The slot content the page field and the channel flags encode.
    pub fn slot(&self) -> Slot {
        let page = u32::from_le_bytes(self.field(10));
        if u16::from_le_bytes(self.field(8)) & CHANNEL_PULL_FLAG != 0 {
            // The pull flag overrides the page-field sentinel space: a
            // pull airing always carries a plain page id.
            Slot::Pull(PageId(page))
        } else if self.header_len == HEADER_LEN_V3 && page == FENCE_SENTINEL {
            Slot::EpochFence
        } else if page == EMPTY_SENTINEL {
            Slot::Empty
        } else if page & REPAIR_FLAG != 0 {
            Slot::Repair(RepairId(page & !REPAIR_FLAG))
        } else {
            Slot::Page(PageId(page))
        }
    }

    /// The bytes past the header.
    pub fn payload(&self) -> &'a [u8] {
        &self.body[self.header_len..]
    }

    /// Copies the view into an owned [`Frame`].
    pub fn to_frame(&self) -> Frame {
        let payload = match self.payload() {
            [] => empty_payload(),
            bytes => Arc::from(bytes),
        };
        Frame {
            seq: self.seq(),
            channel: self.channel(),
            slot: self.slot(),
            epoch: self.epoch(),
            payload,
        }
    }
}

/// The one parser of the length-prefixed wire: a receiver feeds it each
/// chunk its socket returns, in order, and takes back verified
/// [`FrameView`]s.
///
/// * A frame that lies wholly inside a chunk is parsed in place. Only a
///   frame that straddles two chunks is copied, and only its own bytes,
///   so the stream never buffers more than one frame.
/// * The length prefix sits outside the CRC, so it is untrusted: a prefix
///   above [`MAX_FRAME_LEN`] yields [`FrameError::TooLong`] before a byte
///   is buffered toward it, and a straddling frame's buffer grows only as
///   its bytes arrive, never to what its prefix claims. `TooLong` is
///   fatal: the stream does not move past it, and the receiver hangs up.
/// * [`FrameError::Corrupt`] and [`FrameError::Truncated`] are per-frame:
///   the framing is intact, so the stream goes on past them. Each CRC
///   failure counts once in `bd_frames_corrupt_total`.
#[derive(Debug, Default)]
pub struct FrameStream {
    /// The leading bytes of the one frame cut off by the end of a chunk
    /// (the whole frame, once completed, until the next call).
    pending: Vec<u8>,
    framed_bytes: u64,
}

impl FrameStream {
    /// The next frame from `input`, which is advanced past it; `None` once
    /// `input` holds no further complete frame (its tail is then
    /// buffered).
    #[inline]
    pub fn next<'a, 'b: 'a>(
        &'a mut self,
        input: &mut &'b [u8],
    ) -> Option<Result<FrameView<'a>, FrameError>> {
        if wire_len(&self.pending) == Some(Ok(self.pending.len())) {
            self.pending.clear(); // the frame the previous call yielded
        }
        let in_place = self.pending.is_empty().then(|| wire_len(input));
        let wire = match in_place.flatten() {
            Some(Err(e)) => return Some(Err(e)),
            Some(Ok(n)) if n <= input.len() => {
                let (wire, rest) = input.split_at(n);
                *input = rest;
                wire
            }
            _ => {
                // Copy just the bytes that complete the buffered frame:
                // the rest of its length prefix if that was cut, then its
                // body.
                self.keep(input, LEN_PREFIX.saturating_sub(self.pending.len()));
                let n = match wire_len(&self.pending)? {
                    Ok(n) => n,
                    Err(e) => return Some(Err(e)),
                };
                self.keep(input, n - self.pending.len());
                if self.pending.len() < n {
                    return None;
                }
                &self.pending[..]
            }
        };
        self.framed_bytes += wire.len() as u64;
        let view = FrameView::parse(&wire[LEN_PREFIX..]);
        if matches!(view, Err(FrameError::Corrupt { .. })) {
            crate::obs::recovery().frames_corrupt.inc();
        }
        Some(view)
    }

    /// Wire bytes of every frame yielded so far, length prefixes included,
    /// whether or not it verified.
    pub fn framed_bytes(&self) -> u64 {
        self.framed_bytes
    }

    /// Moves up to `n` bytes from `input` into the buffer, growing it to
    /// exactly what it holds (never the doubling `extend` would pick).
    fn keep(&mut self, input: &mut &[u8], n: usize) {
        let (head, rest) = input.split_at(n.min(input.len()));
        self.pending.reserve_exact(head.len());
        self.pending.extend_from_slice(head);
        *input = rest;
    }
}

/// Wire length of the frame at the head of `bytes`, once its length
/// prefix is in; [`FrameError::TooLong`] when the prefix is over bound.
fn wire_len(bytes: &[u8]) -> Option<Result<usize, FrameError>> {
    let len = u32::from_le_bytes(bytes.get(..LEN_PREFIX)?.try_into().ok()?) as usize;
    Some(match len {
        0..=MAX_FRAME_LEN => Ok(LEN_PREFIX + len),
        _ => Err(FrameError::TooLong { len }),
    })
}

/// Pre-built page payloads, one shared buffer per page.
///
/// The engine generates this table once at startup (`PageSize` bytes per
/// page, paper Table 2) and every frame of page `p` clones the same
/// `Arc<[u8]>` — page content is materialized exactly once per run, no
/// matter how many slots or subscribers it fans out to.
#[derive(Debug, Clone)]
pub struct PagePayloads {
    pages: Vec<Arc<[u8]>>,
    empty: Arc<[u8]>,
}

impl PagePayloads {
    /// Builds deterministic `page_size`-byte payloads for pages
    /// `0..num_pages`. Byte `i` of page `p` is `(p * 131 + i) mod 256`, so
    /// clients can verify content integrity without shipping real data.
    pub fn generate(num_pages: usize, page_size: usize) -> Self {
        let pages = (0..num_pages)
            .map(|p| {
                (0..page_size)
                    .map(|i| (p.wrapping_mul(131).wrapping_add(i)) as u8)
                    .collect::<Vec<u8>>()
                    .into()
            })
            .collect();
        Self {
            pages,
            empty: empty_payload(),
        }
    }

    /// Bytes per page payload.
    pub fn page_size(&self) -> usize {
        self.pages.first().map_or(0, |p| p.len())
    }

    /// The channel-0 frame for slot `seq` carrying `slot`, sharing the
    /// page's pre-built payload (empty for padding slots). Zero
    /// allocations.
    pub fn frame(&self, seq: u64, slot: Slot) -> Frame {
        self.frame_on(seq, 0, slot)
    }

    /// Like [`PagePayloads::frame`] but on an explicit channel.
    ///
    /// Repair slots get the empty payload here: the symbol's XOR payload
    /// comes from the engine's per-channel repair table (see
    /// `engine::RepairTables`), which this type knows nothing about.
    pub fn frame_on(&self, seq: u64, channel: u16, slot: Slot) -> Frame {
        let payload = match slot {
            // A pull airing carries the same shared payload as a push
            // airing of the page — only the channel-field flag differs.
            Slot::Page(p) | Slot::Pull(p) => Arc::clone(&self.pages[p.index()]),
            // EpochFence never comes from a program slot (fences carry
            // their base in a payload built by `Frame::fence`), but an
            // empty payload keeps the match total.
            Slot::Empty | Slot::Repair(_) | Slot::EpochFence => Arc::clone(&self.empty),
        };
        Frame {
            seq,
            channel,
            slot,
            epoch: 0,
            payload,
        }
    }

    /// The payload table itself, indexed by page id (the repair-symbol
    /// encoder XORs these).
    pub fn page(&self, page: PageId) -> &Arc<[u8]> {
        &self.pages[page.index()]
    }
}

/// A client→server pull request: the client missed `page` in its cache
/// and asks the broker to air it on demand instead of waiting out the
/// periodic schedule. Parsed from the upstream byte stream by
/// [`crate::upstream::UpstreamParser`] and queued by the slot arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PullRequest {
    /// Client-chosen user id, for per-user fairness accounting.
    pub user: u32,
    /// The page being requested.
    pub page: PageId,
    /// The earliest slot seq at which the requester can receive the page
    /// (its current frame seq, raised by any retune penalty in flight).
    /// The arbiter never services the request before this instant, and
    /// drops it when the periodic schedule already aired the page at or
    /// after it.
    pub min_seq: u64,
}

/// What to do when a client's send buffer is full — i.e. the client is
/// consuming slower than the broadcast rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Drop the new frame for that client; the broadcast never stalls.
    /// This is what a real broadcast medium does — a receiver that is not
    /// listening simply misses the page and waits a period for it.
    DropNewest,
    /// Disconnect the slow client outright.
    Disconnect,
}

/// Per-broadcast delivery accounting, accumulated by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Frames enqueued to clients.
    pub delivered: u64,
    /// Frames dropped because a client's buffer was full.
    pub dropped: u64,
    /// Clients disconnected during this broadcast (slow or gone).
    pub disconnected: u64,
    /// Wire bytes enqueued to clients (length prefix + header + payload
    /// per delivered frame).
    pub bytes: u64,
    /// Largest per-client backlog (queued frames, including the frame
    /// being delivered) sampled at enqueue time. An inline medium, which
    /// hands each frame over as it airs, reports 1.
    pub max_queue: usize,
}

impl DeliveryStats {
    /// Accumulates another sample (sums counters, maxes the backlog).
    pub fn absorb(&mut self, other: DeliveryStats) {
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.disconnected += other.disconnected;
        self.bytes += other.bytes;
        self.max_queue = self.max_queue.max(other.max_queue);
    }
}

/// A broadcast medium: fans one frame out to every connected client.
///
/// Implementations own the client registry; the engine only sees aggregate
/// delivery stats and the live client count. A transport may batch
/// deliveries internally, in which case a `broadcast` call reports the
/// stats of whatever flush it completed (possibly none), an idle engine's
/// [`Transport::flush`] reports an early one, and the tail batch is
/// reported by [`Transport::finish`].
pub trait Transport: Send {
    /// Sends `frame` to every connected client, applying the transport's
    /// backpressure policy to slow consumers.
    fn broadcast(&mut self, frame: Frame) -> DeliveryStats;

    /// Number of currently connected clients (as of the last flush for
    /// batching transports).
    fn active_clients(&self) -> usize;

    /// Pushes any batched-but-unsent frames toward clients now, returning
    /// the delivery stats of that early flush. A paced engine calls this
    /// when it finishes a slot ahead of the next slot's deadline, so each
    /// slot reaches the air within its own slot time. A free-running
    /// engine never calls it, so batching still amortizes there. The
    /// default suits a transport that sends every frame as it arrives.
    fn flush(&mut self) -> DeliveryStats {
        DeliveryStats::default()
    }

    /// Flushes and releases transport resources (closes client feeds),
    /// returning the delivery stats of any final partial batch. The engine
    /// calls this once after the last slot and absorbs the result.
    fn finish(&mut self) -> DeliveryStats {
        DeliveryStats::default()
    }

    /// Sets the hello frame sent to each newly connected client before any
    /// broadcast traffic — the engine installs the current epoch's fence
    /// here so a late joiner (or a reconnect after a broker restart)
    /// learns `(epoch, base)` immediately instead of waiting up to a cycle
    /// for the next refresh fence. `None` (the default, and the epoch-0
    /// state) sends nothing, keeping pre-epoch runs byte-identical.
    fn set_hello(&mut self, _hello: Option<Frame>) {}

    /// Drains every upstream [`PullRequest`] received since the last call
    /// into `out` (appending; arrival order preserved). The engine polls
    /// this once per tick when pull arbitration is enabled and never
    /// otherwise, so push-only runs pay nothing. A paced engine polls
    /// after its idle flush and pacing wait, just before arbitration, so
    /// a request that arrives before slot `s`'s deadline can air at `s`.
    /// The default is the
    /// downstream-only transport: no requests, `out` untouched.
    fn take_requests(&mut self, _out: &mut Vec<PullRequest>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::TunerStats;
    use proptest::prelude::*;

    #[test]
    fn frame_round_trips_with_payload() {
        let payloads = PagePayloads::generate(100, 16);
        let f = payloads.frame(123_456_789, Slot::Page(PageId(42)));
        assert_eq!(f.payload.len(), 16);
        let bytes = f.encode();
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4);
        assert_eq!(bytes.len(), f.wire_len());
        assert_eq!(Frame::decode(&bytes[4..]), Ok(f));
    }

    #[test]
    fn payloads_are_shared_not_copied() {
        let payloads = PagePayloads::generate(10, 64);
        let a = payloads.frame(0, Slot::Page(PageId(3)));
        let b = payloads.frame(7, Slot::Page(PageId(3)));
        // Same allocation: fan-out clones bump a refcount, nothing more.
        assert!(Arc::ptr_eq(&a.payload, &b.payload));
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.payload, &c.payload));
    }

    #[test]
    fn payload_content_is_deterministic() {
        let a = PagePayloads::generate(5, 8);
        let b = PagePayloads::generate(5, 8);
        for p in 0..5 {
            let fa = a.frame(0, Slot::Page(PageId(p)));
            let fb = b.frame(0, Slot::Page(PageId(p)));
            assert_eq!(fa.payload, fb.payload);
        }
        // Pages differ from each other.
        let p0 = a.frame(0, Slot::Page(PageId(0)));
        let p1 = a.frame(0, Slot::Page(PageId(1)));
        assert_ne!(p0.payload, p1.payload);
    }

    #[test]
    fn empty_slot_uses_sentinel() {
        let f = Frame::bare(7, Slot::Empty);
        let bytes = f.encode();
        assert_eq!(bytes.len(), 4 + HEADER_LEN);
        assert_eq!(Frame::decode(&bytes[4..]), Ok(f));
    }

    #[test]
    fn repair_slot_round_trips_and_stays_distinct() {
        // A repair frame round-trips through the flag bit with its payload.
        let payload: Arc<[u8]> = vec![0xAB; 16].into();
        let f = Frame {
            seq: 42,
            channel: 1,
            slot: Slot::Repair(RepairId(7)),
            epoch: 0,
            payload,
        };
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes[LEN_PREFIX..]), Ok(f));
        // The empty sentinel has the high bit set too: decode must not
        // confuse padding with a repair symbol, in either direction.
        let e = Frame::bare(3, Slot::Empty);
        let decoded = Frame::decode(&e.encode()[LEN_PREFIX..]).unwrap();
        assert_eq!(decoded.slot, Slot::Empty);
        let r = Frame::bare(3, Slot::Repair(RepairId(0x7FFF_FFFE)));
        let decoded = Frame::decode(&r.encode()[LEN_PREFIX..]).unwrap();
        assert_eq!(decoded.slot, Slot::Repair(RepairId(0x7FFF_FFFE)));
    }

    #[test]
    fn pull_frame_round_trips_on_v2_and_v3() {
        let payloads = PagePayloads::generate(8, 16);
        // Epoch 0: a pull frame is v2-sized — same header as a push frame.
        let mut f = payloads.frame_on(31, 2, Slot::Page(PageId(5)));
        f.slot = Slot::Pull(PageId(5));
        let bytes = f.encode();
        assert_eq!(bytes.len(), LEN_PREFIX + HEADER_LEN + 16);
        let decoded = Frame::decode(&bytes[LEN_PREFIX..]).unwrap();
        assert_eq!(decoded.slot, Slot::Pull(PageId(5)));
        assert_eq!(decoded.channel, 2);
        assert_eq!(decoded.epoch, 0);
        assert_eq!(decoded.payload, f.payload);
        // Nonzero epoch: pull composes with the v3 flag.
        let f3 = f.clone().with_epoch(9);
        let decoded = Frame::decode(&f3.encode()[LEN_PREFIX..]).unwrap();
        assert_eq!(decoded.slot, Slot::Pull(PageId(5)));
        assert_eq!(decoded.epoch, 9);
        assert_eq!(decoded.channel, 2);
    }

    #[test]
    fn pull_differs_from_push_by_exactly_one_wire_bit() {
        let payloads = PagePayloads::generate(8, 16);
        let push = payloads.frame_on(31, 2, Slot::Page(PageId(5)));
        let mut pull = push.clone();
        pull.slot = Slot::Pull(PageId(5));
        let pb = push.encode();
        let lb = pull.encode();
        assert_eq!(pb.len(), lb.len());
        let diff: u32 = pb
            .iter()
            .zip(&lb)
            .enumerate()
            // The CRC field re-binds the flag; exclude it from the count.
            .filter(|&(i, _)| !(LEN_PREFIX + CRC_OFFSET..LEN_PREFIX + CRC_OFFSET + 4).contains(&i))
            .map(|(_, (a, b))| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "pull flag must be the only non-CRC difference");
        assert_ne!(
            &pb[LEN_PREFIX + CRC_OFFSET..LEN_PREFIX + CRC_OFFSET + 4],
            &lb[LEN_PREFIX + CRC_OFFSET..LEN_PREFIX + CRC_OFFSET + 4],
            "the pull flag must be CRC-bound"
        );
    }

    #[test]
    fn pull_flag_overrides_page_sentinels() {
        // A pull airing of a page whose id happens to have the repair
        // high bit clear is the normal case; the decode path must check
        // the pull flag before any page-field sentinel.
        let f = Frame::bare_on(7, 1, Slot::Pull(PageId(0)));
        let decoded = Frame::decode(&f.encode()[LEN_PREFIX..]).unwrap();
        assert_eq!(decoded.slot, Slot::Pull(PageId(0)));
    }

    #[test]
    fn bare_frames_share_one_empty_buffer() {
        let a = Frame::bare(0, Slot::Empty);
        let b = Frame::bare(1, Slot::Empty);
        assert!(Arc::ptr_eq(&a.payload, &b.payload));
    }

    #[test]
    fn encode_shared_matches_encode() {
        let payloads = PagePayloads::generate(4, 32);
        let f = payloads.frame(9, Slot::Page(PageId(2)));
        assert_eq!(&f.encode_shared()[..], &f.encode()[..]);
    }

    #[test]
    fn truncated_body_rejected() {
        assert_eq!(Frame::decode(&[0u8; 5]), Err(FrameError::Truncated));
    }

    #[test]
    fn every_single_bit_corruption_detected() {
        let payloads = PagePayloads::generate(8, 24);
        let f = payloads.frame(77, Slot::Page(PageId(5)));
        let bytes = f.encode();
        let body = &bytes[LEN_PREFIX..];
        assert!(FrameView::parse(body).is_ok());
        // Flip every bit of the body (header fields, CRC itself, payload):
        // decode must reject each damaged copy.
        for bit in 0..body.len() * 8 {
            let mut damaged = body.to_vec();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(Frame::decode(&damaged), Err(FrameError::Corrupt { .. })),
                "bit {bit} flip went undetected"
            );
            assert!(FrameView::parse(&damaged).is_err());
        }
    }

    #[test]
    fn crc_covers_seq_and_page_not_just_payload() {
        // Two frames with identical payloads but different headers must
        // carry different CRCs (the checksum binds the sequence number).
        let payloads = PagePayloads::generate(4, 16);
        let a = payloads.frame(1, Slot::Page(PageId(2))).encode();
        let b = payloads.frame(2, Slot::Page(PageId(2))).encode();
        let crc = |buf: &[u8]| {
            u32::from_le_bytes(
                buf[LEN_PREFIX + CRC_OFFSET..LEN_PREFIX + CRC_OFFSET + 4]
                    .try_into()
                    .unwrap(),
            )
        };
        assert_ne!(crc(&a), crc(&b));
    }

    #[test]
    fn channel_round_trips_and_is_crc_bound() {
        let payloads = PagePayloads::generate(4, 16);
        let f = payloads.frame_on(9, 3, Slot::Page(PageId(1)));
        assert_eq!(f.channel, 3);
        let bytes = f.encode();
        let decoded = Frame::decode(&bytes[LEN_PREFIX..]).unwrap();
        assert_eq!(decoded.channel, 3);
        assert_eq!(decoded, f);
        // Same seq/page/payload on another channel: different CRC — the
        // checksum binds the channel field too.
        let other = payloads.frame_on(9, 4, Slot::Page(PageId(1))).encode();
        let crc = |buf: &[u8]| {
            u32::from_le_bytes(
                buf[LEN_PREFIX + CRC_OFFSET..LEN_PREFIX + CRC_OFFSET + 4]
                    .try_into()
                    .unwrap(),
            )
        };
        assert_ne!(crc(&bytes), crc(&other));
        // The channel-0 helpers stay aliases of the explicit form.
        assert_eq!(
            payloads.frame(9, Slot::Page(PageId(1))),
            payloads.frame_on(9, 0, Slot::Page(PageId(1)))
        );
        assert_eq!(
            Frame::bare(5, Slot::Empty),
            Frame::bare_on(5, 0, Slot::Empty)
        );
    }

    #[test]
    fn epoch_zero_frames_stay_wire_v2_byte_identical() {
        // An epoch-0 frame must encode exactly as pre-epoch brokers did:
        // 18-byte header, no v3 flag, no epoch field.
        let payloads = PagePayloads::generate(8, 16);
        for slot in [
            Slot::Page(PageId(3)),
            Slot::Empty,
            Slot::Repair(RepairId(0x7FFF_FFFE)),
        ] {
            let f = payloads.frame_on(41, 2, slot);
            assert_eq!(f.epoch, 0);
            assert_eq!(f.header_len(), HEADER_LEN);
            let bytes = f.encode();
            let chan = u16::from_le_bytes(bytes[12..14].try_into().unwrap());
            assert_eq!(chan & CHANNEL_V3_FLAG, 0, "v3 flag leaked into {slot:?}");
            let decoded = Frame::decode(&bytes[LEN_PREFIX..]).unwrap();
            assert_eq!(decoded, f);
            assert_eq!(decoded.epoch, 0);
        }
    }

    #[test]
    fn nonzero_epoch_frames_round_trip_as_v3() {
        let payloads = PagePayloads::generate(8, 16);
        for slot in [
            Slot::Page(PageId(5)),
            Slot::Empty,
            Slot::Repair(RepairId(9)),
        ] {
            let f = payloads.frame_on(99, 1, slot).with_epoch(7);
            assert_eq!(f.header_len(), HEADER_LEN_V3);
            assert_eq!(f.wire_len(), LEN_PREFIX + HEADER_LEN_V3 + f.payload.len());
            let bytes = f.encode();
            assert_eq!(bytes.len(), f.wire_len());
            let chan = u16::from_le_bytes(bytes[12..14].try_into().unwrap());
            assert_ne!(chan & CHANNEL_V3_FLAG, 0);
            let decoded = Frame::decode(&bytes[LEN_PREFIX..]).unwrap();
            assert_eq!(decoded, f);
            assert_eq!(decoded.epoch, 7);
            assert_eq!(decoded.channel, 1);
        }
    }

    #[test]
    fn fence_frames_carry_epoch_and_base() {
        let f = Frame::fence(1000, 3, 4, 960);
        assert_eq!(f.slot, Slot::EpochFence);
        assert_eq!(f.fence_base(), Some(960));
        let bytes = f.encode();
        let decoded = Frame::decode(&bytes[LEN_PREFIX..]).unwrap();
        assert_eq!(decoded, f);
        assert_eq!(decoded.epoch, 4);
        assert_eq!(decoded.fence_base(), Some(960));
        // A fence announcing epoch 0 (restart hello) is still v3 on the
        // wire — the fence sentinel only exists in the v3 page space.
        let hello = Frame::fence(0, 0, 0, 0);
        assert_eq!(hello.header_len(), HEADER_LEN_V3);
        let decoded = Frame::decode(&hello.encode()[LEN_PREFIX..]).unwrap();
        assert_eq!(decoded.slot, Slot::EpochFence);
        assert_eq!(decoded.fence_base(), Some(0));
        // Non-fence frames have no base; malformed fence payloads read None.
        assert_eq!(Frame::bare(0, Slot::Empty).fence_base(), None);
        let mut bad = Frame::fence(0, 0, 1, 5);
        bad.payload = Arc::from(&[1u8, 2, 3][..]);
        assert_eq!(bad.fence_base(), None);
    }

    #[test]
    fn v2_never_interprets_the_fence_sentinel() {
        // The same page value that marks a fence on v3 is a legal repair
        // id on v2 — a pre-epoch decoder contract we must not break.
        let r = Frame::bare(3, Slot::Repair(RepairId(0x7FFF_FFFE)));
        assert_eq!(r.header_len(), HEADER_LEN);
        let decoded = Frame::decode(&r.encode()[LEN_PREFIX..]).unwrap();
        assert_eq!(decoded.slot, Slot::Repair(RepairId(0x7FFF_FFFE)));
        assert_eq!(decoded.epoch, 0);
    }

    #[test]
    fn every_single_bit_corruption_detected_on_v3() {
        // The version-blind CRC binds the epoch bytes too: flip any bit of
        // a v3 body (header, epoch, payload, CRC itself) and decode fails.
        let payloads = PagePayloads::generate(8, 24);
        let f = payloads
            .frame_on(77, 2, Slot::Page(PageId(5)))
            .with_epoch(3);
        let bytes = f.encode();
        let body = &bytes[LEN_PREFIX..];
        assert!(FrameView::parse(body).is_ok());
        for bit in 0..body.len() * 8 {
            let mut damaged = body.to_vec();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(Frame::decode(&damaged), Err(FrameError::Corrupt { .. })),
                "bit {bit} flip went undetected"
            );
        }
        // Same frame in a different epoch: different CRC — the checksum
        // binds the epoch field.
        let other = payloads
            .frame_on(77, 2, Slot::Page(PageId(5)))
            .with_epoch(4)
            .encode();
        let crc = |buf: &[u8]| {
            u32::from_le_bytes(
                buf[LEN_PREFIX + CRC_OFFSET..LEN_PREFIX + CRC_OFFSET + 4]
                    .try_into()
                    .unwrap(),
            )
        };
        assert_ne!(crc(&bytes), crc(&other));
    }

    #[test]
    fn truncated_v3_header_rejected() {
        // A v3 frame cut between the CRC and the epoch field is Truncated,
        // not mis-decoded — but the CRC check runs first, so a clean cut
        // surfaces as Corrupt and only a CRC-consistent short body (never
        // produced by our encoder) reports Truncated. Build one by hand.
        let f = Frame::bare(9, Slot::Empty).with_epoch(2);
        let bytes = f.encode();
        assert_eq!(bytes.len(), LEN_PREFIX + HEADER_LEN_V3);
        let mut short = bytes[LEN_PREFIX..LEN_PREFIX + HEADER_LEN].to_vec();
        // Recompute a consistent CRC for the shortened body.
        let crc = body_crc(&short);
        short[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Frame::decode(&short), Err(FrameError::Truncated));
    }

    #[test]
    fn stats_absorb_sums_and_maxes() {
        let mut a = DeliveryStats {
            delivered: 3,
            dropped: 1,
            disconnected: 0,
            bytes: 48,
            max_queue: 5,
        };
        a.absorb(DeliveryStats {
            delivered: 2,
            dropped: 0,
            disconnected: 1,
            bytes: 32,
            max_queue: 2,
        });
        assert_eq!(a.delivered, 5);
        assert_eq!(a.dropped, 1);
        assert_eq!(a.disconnected, 1);
        assert_eq!(a.bytes, 80);
        assert_eq!(a.max_queue, 5);
    }

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

    /// A fleet tuner's tally of `chunks`, streamed in order.
    fn tally<'c>(chunks: impl IntoIterator<Item = &'c [u8]>) -> (TunerStats, FrameStream) {
        let mut stream = FrameStream::default();
        let mut stats = TunerStats::default();
        for chunk in chunks {
            stats.ingest(&mut stream, chunk).expect("no forged prefix");
        }
        (stats, stream)
    }

    #[test]
    fn reassembly_is_split_invariant() {
        let (wire, _) = frame_stream();
        let (whole, stream) = tally([&wire[..]]);
        assert_eq!(whole.bytes, wire.len() as u64);
        assert!(stream.pending.is_empty(), "one chunk is parsed in place");
        assert_eq!(whole.frames, 39);
        assert_eq!(whole.crc_errors, 1);
        assert!(whole.gaps > 0);
        // Two reads split at every byte offset.
        for cut in 0..=wire.len() {
            let (stats, stream) = tally([&wire[..cut], &wire[cut..]]);
            assert_eq!(stats_key(&stats), stats_key(&whole), "split at {cut}");
            assert!(stream.pending.is_empty());
        }
        // Reads of every small size, so frames straddle many reads and
        // length prefixes get cut too.
        for read in 1..=16 {
            let (stats, stream) = tally(wire.chunks(read));
            assert_eq!(stats_key(&stats), stats_key(&whole), "reads of {read}");
            assert!(stream.pending.is_empty());
        }
    }

    #[test]
    fn reassembly_buffers_at_most_one_frame() {
        let (frames, largest) = frame_stream();
        let mut wire = Vec::new();
        while wire.len() < 4 * 64 * 1024 {
            wire.extend_from_slice(&frames);
        }
        let mut stream = FrameStream::default();
        let mut stats = TunerStats::default();
        let mut cut_mid_frame = 0;
        for chunk in wire.chunks(64 * 1024) {
            stats.ingest(&mut stream, chunk).unwrap();
            cut_mid_frame += usize::from(!stream.pending.is_empty());
            assert!(
                stream.pending.capacity() <= largest,
                "buffer grew to {} for {largest}-byte frames",
                stream.pending.capacity()
            );
        }
        assert!(cut_mid_frame > 0, "some 64 KiB read must end mid-frame");
        let (whole, _) = tally([&wire[..]]);
        assert_eq!(stats_key(&stats), stats_key(&whole));
    }

    #[test]
    fn length_bound_is_inclusive_and_checked_before_buffering() {
        // A prefix of exactly MAX_FRAME_LEN is a frame in progress: its
        // bytes are buffered as they arrive, never reserved up front.
        let mut stream = FrameStream::default();
        let prefix = (MAX_FRAME_LEN as u32).to_le_bytes();
        let mut input = &prefix[..];
        assert!(stream.next(&mut input).is_none());
        for arrived in 1..=4 {
            let body = [0u8; 1000];
            let mut input = &body[..];
            assert!(stream.next(&mut input).is_none());
            assert!(input.is_empty());
            assert_eq!(stream.pending.len(), LEN_PREFIX + arrived * body.len());
            assert!(stream.pending.capacity() <= stream.pending.len());
        }
        // One byte more is refused on the prefix alone, whole or cut, and
        // nothing past the prefix is taken.
        let forged = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        let tail = [forged.as_slice(), &[7u8; 64]].concat();
        let mut input = &tail[..];
        let mut stream = FrameStream::default();
        let too_long = FrameError::TooLong {
            len: MAX_FRAME_LEN + 1,
        };
        assert_eq!(stream.next(&mut input), Some(Err(too_long)));
        assert_eq!(
            input.len(),
            tail.len(),
            "an in-place prefix is not consumed"
        );
        assert_eq!(stream.pending.capacity(), 0);
        let mut stream = FrameStream::default();
        let (mut head, mut rest) = tail.split_at(2);
        assert!(stream.next(&mut head).is_none());
        assert_eq!(stream.next(&mut rest), Some(Err(too_long)));
        assert_eq!(stream.pending.len(), LEN_PREFIX);
        assert_eq!(rest.len(), 64);
    }

    /// A frame of wire kind `kind % 6` (page, pull, repair, padding, v3
    /// epoch page, fence) with a `len`-byte payload where the kind has one.
    fn any_frame(kind: u8, len: usize, seed: u64) -> Frame {
        let payload: Arc<[u8]> = (0..len)
            .map(|i| (seed >> (i % 8 * 8)) as u8 ^ i as u8)
            .collect::<Vec<u8>>()
            .into();
        let seq = seed >> 20;
        let page = PageId((seed % 1000) as u32);
        let frame = |slot| Frame {
            seq,
            channel: (seed % 7) as u16,
            slot,
            epoch: 0,
            payload: Arc::clone(&payload),
        };
        match kind % 6 {
            0 => frame(Slot::Page(page)),
            1 => frame(Slot::Pull(page)),
            2 => frame(Slot::Repair(RepairId(page.0))),
            3 => Frame::bare_on(seq, 1, Slot::Empty),
            4 => frame(Slot::Page(page)).with_epoch(1 + (seed % 9) as u32),
            _ => Frame::fence(seq, 2, (seed % 5) as u32, seq / 2),
        }
    }

    /// Streams `wire` in chunks of `sizes` bytes (cycled): the frames it
    /// yields, its per-frame failures, and the fatal error that ended it,
    /// if any. Checks the buffer never outgrows `largest` bytes.
    fn stream_chunks(
        wire: &[u8],
        sizes: &[usize],
        largest: usize,
    ) -> (Vec<Frame>, u64, Option<FrameError>) {
        let mut stream = FrameStream::default();
        let (mut frames, mut failed) = (Vec::new(), 0);
        let mut rest = wire;
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (mut chunk, tail) = rest.split_at(size.min(rest.len()));
            rest = tail;
            while let Some(item) = stream.next(&mut chunk) {
                match item {
                    Ok(view) => frames.push(view.to_frame()),
                    Err(e @ FrameError::TooLong { .. }) => {
                        assert!(stream.pending.len() <= LEN_PREFIX, "buffered toward {e}");
                        return (frames, failed, Some(e));
                    }
                    Err(_) => failed += 1,
                }
                assert!(stream.pending.capacity() <= largest);
            }
            assert!(stream.pending.capacity() <= largest);
        }
        (frames, failed, None)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn frame_stream_round_trips_any_split(
            specs in prop::collection::vec((0u8..6, 0usize..=5000, any::<u64>()), 0..10),
            sizes in prop::collection::vec(1usize..=6000, 1..8),
            damage in 0u8..4,
            at in any::<u64>(),
        ) {
            let frames: Vec<Frame> =
                specs.iter().map(|&(kind, len, seed)| any_frame(kind, len, seed)).collect();
            let mut encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
            let mut largest = encoded.iter().map(Vec::len).max().unwrap_or(0);
            let (mut expect, mut corrupt, mut fatal) = (frames.clone(), 0, None);
            match damage {
                // One flipped body bit: that frame fails its CRC.
                1 if !frames.is_empty() => {
                    let k = at as usize % frames.len();
                    let bit = (at >> 16) as usize % ((encoded[k].len() - LEN_PREFIX) * 8);
                    encoded[k][LEN_PREFIX + bit / 8] ^= 1 << (bit % 8);
                    expect.remove(k);
                    corrupt = 1;
                }
                // Leading garbage behind a plausible prefix: one failed frame.
                2 => {
                    let len = at as usize % 64;
                    let mut garbage = (len as u32).to_le_bytes().to_vec();
                    garbage.extend((0..len).map(|i| (at >> (i % 8 * 8)) as u8 ^ i as u8));
                    largest = largest.max(garbage.len());
                    encoded.insert(0, garbage);
                    corrupt = 1;
                }
                // A forged prefix at a frame boundary: fatal there.
                3 => {
                    let k = at as usize % (frames.len() + 1);
                    let len = MAX_FRAME_LEN + 1
                        + (at >> 8) as usize % (u32::MAX as usize - MAX_FRAME_LEN);
                    encoded.insert(k, (len as u32).to_le_bytes().to_vec());
                    expect.truncate(k);
                    fatal = Some(FrameError::TooLong { len });
                }
                _ => {}
            }
            let got = stream_chunks(&encoded.concat(), &sizes, largest);
            prop_assert_eq!(got, (expect, corrupt, fatal));
        }
    }
}
