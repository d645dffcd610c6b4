//! The upstream (client→server) request wire format and its hardened
//! parser.
//!
//! Downstream frames are length-prefixed and trusted to be well-formed
//! because the broker writes them; upstream bytes come from arbitrary
//! clients and get the opposite treatment. A request is a fixed-size
//! 24-byte magic-framed record:
//!
//! ```text
//! [u32 magic "BDRQ"] [u32 user] [u32 page] [u64 min_seq] [u32 crc]
//! ```
//!
//! all little-endian, where `crc` is CRC-32/ISO-HDLC over the first 20
//! bytes. The fixed size means no attacker-controlled length field to
//! cap (the lesson of `MAX_FRAME_LEN` on the downstream path applied by
//! construction), and the magic + CRC let the parser resynchronize after
//! garbage: scan forward one byte at a time until a record validates.
//!
//! The parser **never** errors and never kills a connection: a legacy
//! push-only client that writes stray bytes upstream — or an adversarial
//! one that writes 4 KiB of noise — just has those bytes counted and
//! skipped. The reassembly buffer is capped at [`MAX_BUFFER`]; on
//! overflow everything but the last (possibly partial) record is
//! discarded, bounding memory per connection.

use crate::crc::{crc32_finish, crc32_init, crc32_update};
use crate::transport::PullRequest;
use bdisk_sched::PageId;

/// Leading magic of an upstream request record.
pub const REQUEST_MAGIC: [u8; 4] = *b"BDRQ";

/// Total bytes of an upstream request record.
pub const REQUEST_LEN: usize = 24;

/// Reassembly-buffer cap per connection. Anything beyond one ordinary
/// socket read of well-formed records fits; sustained garbage is dropped
/// rather than buffered.
pub const MAX_BUFFER: usize = 4096;

/// Serializes one upstream request record.
pub fn encode_request(user: u32, page: PageId, min_seq: u64) -> [u8; REQUEST_LEN] {
    let mut buf = [0u8; REQUEST_LEN];
    buf[0..4].copy_from_slice(&REQUEST_MAGIC);
    buf[4..8].copy_from_slice(&user.to_le_bytes());
    buf[8..12].copy_from_slice(&page.0.to_le_bytes());
    buf[12..20].copy_from_slice(&min_seq.to_le_bytes());
    let crc = crc32_finish(crc32_update(crc32_init(), &buf[..20]));
    buf[20..24].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Incremental, resynchronizing parser for one connection's upstream byte
/// stream. Feed it whatever the socket drained; it emits every valid
/// [`PullRequest`] and silently skips everything else.
///
/// Allocation-lazy: a connection that never writes upstream (every
/// push-only client) costs an empty `Vec` and nothing more, preserving
/// the evented transport's zero-allocation steady state.
#[derive(Debug, Default)]
pub struct UpstreamParser {
    buf: Vec<u8>,
    rejected_bytes: u64,
}

impl UpstreamParser {
    /// A fresh parser with an empty reassembly buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes skipped so far because they were not part of any valid
    /// record (garbage, corruption, or overflow discards).
    pub fn rejected_bytes(&self) -> u64 {
        self.rejected_bytes
    }

    /// Consumes `bytes` from the connection, appending every complete
    /// valid record to `out`.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<PullRequest>) {
        if bytes.is_empty() {
            return;
        }
        self.buf.extend_from_slice(bytes);
        // Parse greedily: at each position either a whole valid record
        // starts (consume it) or we skip one byte and rescan — the
        // resync that makes interleaved garbage survivable.
        let mut pos = 0;
        while self.buf.len() - pos >= REQUEST_LEN {
            let rec = &self.buf[pos..pos + REQUEST_LEN];
            if rec[0..4] == REQUEST_MAGIC {
                let crc = crc32_finish(crc32_update(crc32_init(), &rec[..20]));
                if crc == u32::from_le_bytes(rec[20..24].try_into().unwrap()) {
                    out.push(PullRequest {
                        user: u32::from_le_bytes(rec[4..8].try_into().unwrap()),
                        page: PageId(u32::from_le_bytes(rec[8..12].try_into().unwrap())),
                        min_seq: u64::from_le_bytes(rec[12..20].try_into().unwrap()),
                    });
                    pos += REQUEST_LEN;
                    continue;
                }
            }
            pos += 1;
            self.rejected_bytes += 1;
        }
        self.buf.drain(..pos);
        // Cap the tail: garbage that never resynchronizes must not grow
        // the buffer without bound. Keep only the suffix that could
        // still be the prefix of a valid record.
        if self.buf.len() > MAX_BUFFER {
            let keep = REQUEST_LEN - 1;
            let drop = self.buf.len() - keep;
            self.rejected_bytes += drop as u64;
            self.buf.drain(..drop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn feed_all(parser: &mut UpstreamParser, bytes: &[u8], chunk: usize) -> Vec<PullRequest> {
        let mut out = Vec::new();
        for c in bytes.chunks(chunk.max(1)) {
            parser.feed(c, &mut out);
        }
        out
    }

    #[test]
    fn single_record_round_trips() {
        let rec = encode_request(7, PageId(42), 1234);
        let mut p = UpstreamParser::new();
        let out = feed_all(&mut p, &rec, REQUEST_LEN);
        assert_eq!(
            out,
            vec![PullRequest {
                user: 7,
                page: PageId(42),
                min_seq: 1234
            }]
        );
        assert_eq!(p.rejected_bytes(), 0);
    }

    #[test]
    fn records_survive_any_split_boundary() {
        let mut bytes = Vec::new();
        for i in 0..5u32 {
            bytes.extend_from_slice(&encode_request(i, PageId(i * 3), i as u64 * 100));
        }
        for chunk in 1..=bytes.len() {
            let mut p = UpstreamParser::new();
            let out = feed_all(&mut p, &bytes, chunk);
            assert_eq!(out.len(), 5, "chunk size {chunk}");
            assert_eq!(out[4].page, PageId(12));
            assert_eq!(p.rejected_bytes(), 0);
        }
    }

    #[test]
    fn garbage_between_records_is_skipped_and_counted() {
        let mut bytes = b"hello broker, got any pages?".to_vec();
        bytes.extend_from_slice(&encode_request(1, PageId(9), 50));
        bytes.extend_from_slice(&[0xFF; 31]);
        bytes.extend_from_slice(&encode_request(2, PageId(10), 60));
        let mut p = UpstreamParser::new();
        let out = feed_all(&mut p, &bytes, 7);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].page, PageId(9));
        assert_eq!(out[1].page, PageId(10));
        assert_eq!(p.rejected_bytes(), 28 + 31);
    }

    #[test]
    fn corrupt_record_rejected_then_resyncs() {
        let mut rec = encode_request(3, PageId(5), 70).to_vec();
        rec[13] ^= 0x40; // damage min_seq → CRC mismatch
        rec.extend_from_slice(&encode_request(4, PageId(6), 80));
        let mut p = UpstreamParser::new();
        let out = feed_all(&mut p, &rec, 5);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].user, 4);
        assert_eq!(p.rejected_bytes(), REQUEST_LEN as u64);
    }

    #[test]
    fn every_single_bit_corruption_is_rejected() {
        let rec = encode_request(11, PageId(22), 333);
        for bit in 0..REQUEST_LEN * 8 {
            let mut damaged = rec;
            damaged[bit / 8] ^= 1 << (bit % 8);
            let mut p = UpstreamParser::new();
            let mut out = Vec::new();
            p.feed(&damaged, &mut out);
            assert!(out.is_empty(), "bit {bit} flip went undetected");
        }
    }

    #[test]
    fn buffer_is_capped_under_sustained_garbage() {
        let mut p = UpstreamParser::new();
        let mut out = Vec::new();
        let junk = vec![0x42u8; 1024]; // 'B' bytes: worst case, magic-ish
        for _ in 0..64 {
            p.feed(&junk, &mut out);
            assert!(p.buf.len() <= MAX_BUFFER, "buffer grew past the cap");
        }
        assert!(out.is_empty());
        assert!(p.rejected_bytes() > 60 * 1024);
        // The parser still works after the flood.
        p.feed(&encode_request(1, PageId(2), 3), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn adversarial_fuzz_never_panics_and_recovers_planted_records() {
        let mut rng = StdRng::seed_from_u64(0xB0AD_CA57);
        for round in 0..50 {
            let mut bytes = Vec::new();
            let mut planted = 0u32;
            while bytes.len() < 8192 {
                if rng.random_range(0u32..10) < 3 {
                    bytes.extend_from_slice(&encode_request(
                        planted,
                        PageId(rng.random_range(0..1000)),
                        rng.random_range(0..1_000_000),
                    ));
                    planted += 1;
                } else {
                    let n = rng.random_range(1usize..64);
                    // Bias garbage toward magic bytes to stress resync.
                    for _ in 0..n {
                        bytes.push(if rng.random_range(0u32..2) == 0 {
                            REQUEST_MAGIC[rng.random_range(0usize..4)]
                        } else {
                            rng.random()
                        });
                    }
                }
            }
            let mut p = UpstreamParser::new();
            let out = feed_all(&mut p, &bytes, rng.random_range(1..200));
            // Every planted record is recovered, in order. (Random
            // garbage forging a valid CRC'd record is a ~2^-32 event per
            // offset; the seeds here are fixed, so this is deterministic.)
            let users: Vec<u32> = out.iter().map(|r| r.user).collect();
            assert_eq!(users, (0..planted).collect::<Vec<_>>(), "round {round}");
        }
    }
}
