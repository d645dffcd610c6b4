//! CRC-32/ISO-HDLC (the "CRC32" of zlib, Ethernet, PNG), vendored — no
//! external dependency. Every downstream frame is checksummed once at
//! encode and once per tuner at verify, so this is the broker's per-byte
//! cost: a slice-by-8 kernel folds eight input bytes per step through
//! eight compile-time tables instead of one byte through one.

/// `TABLES[0]` is the classic byte table of the reflected polynomial
/// 0xEDB88320; `TABLES[k][i]` is the CRC of byte `i` followed by `k` zero
/// bytes, which is what lets eight lookups retire eight bytes at once.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Initial CRC32 state for the streaming API.
pub fn crc32_init() -> u32 {
    u32::MAX
}

/// Folds `bytes` into a running CRC32 state. Splitting a buffer across
/// calls at any point gives the same state as one call over the whole
/// (the frame CRC relies on this to skip its own 4-byte field).
pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Finalizes a streaming CRC32 state into the checksum.
pub fn crc32_finish(crc: u32) -> u32 {
    !crc
}

/// CRC-32/ISO-HDLC over `bytes`. Detects every single-bit error and all
/// burst errors up to 32 bits — exactly the damage
/// [`crate::ChannelFault::Corrupt`] injects.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(crc32_init(), bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step reference the sliced kernel must agree with.
    fn bytewise_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Random lengths rarely land under two words, where the word loop
    /// hands over to the byte tail; sweep those exhaustively.
    #[test]
    fn short_buffers_match_bytewise_oracle() {
        let buf: Vec<u8> = (0..40u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for end in start..=buf.len() {
                let bytes = &buf[start..end];
                assert_eq!(
                    crc32_update(0x1234_5678, bytes),
                    bytewise_update(0x1234_5678, bytes)
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sliced == bytewise at every start offset within an 8-byte
        /// word, from any running state, for lengths spanning empty,
        /// sub-word, and multi-KiB (a 4 KiB page plus header) buffers.
        #[test]
        fn sliced_matches_bytewise_oracle(
            buf in proptest::collection::vec(any::<u8>(), 0usize..=4207),
            state in any::<u32>(),
        ) {
            for offset in 0..8usize.min(buf.len() + 1) {
                let bytes = &buf[offset..];
                prop_assert_eq!(crc32_update(state, bytes), bytewise_update(state, bytes));
            }
        }

        /// Streaming across any split point equals the one-shot value.
        #[test]
        fn any_split_point_matches_one_shot(
            buf in proptest::collection::vec(any::<u8>(), 0usize..=4200),
            cut in any::<usize>(),
        ) {
            let cut = cut % (buf.len() + 1);
            let split = crc32_update(crc32_update(crc32_init(), &buf[..cut]), &buf[cut..]);
            prop_assert_eq!(crc32_finish(split), crc32(&buf));
        }
    }
}
