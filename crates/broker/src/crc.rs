//! CRC-32/ISO-HDLC (the "CRC32" of zlib, Ethernet, PNG), vendored — no
//! external dependency. Every downstream frame is checksummed once at
//! encode and once per tuner at verify, so this is the broker's per-byte
//! cost. Two kernels compute the same function:
//!
//! * **Carry-less multiply** (x86_64 with PCLMULQDQ and SSE4.1, buffers of
//!   at least 128 bytes): four 128-bit accumulators fold 64 input bytes
//!   per step by multiplying with precomputed powers of x modulo the
//!   polynomial, then a Barrett reduction turns the last 128 bits into
//!   the 32-bit state (Intel, "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ Instruction", 2009). Every 4 KiB page
//!   takes this path; it runs about 16× faster than the tables.
//! * **Slice-by-8**: eight input bytes per step through eight
//!   compile-time tables. It serves short buffers (headers, upstream
//!   records, small pages), the sub-16-byte tail the fold leaves, and
//!   every other target.
//!
//! The kernel is chosen per call by length and a cached CPU feature probe,
//! so no configuration selects it.

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

/// Shortest buffer [`crc32_update`] hands to the carry-less-multiply
/// kernel; below it the fold's fixed setup and reduction cost more than
/// the tables.
const CLMUL_MIN_LEN: usize = 128;

/// Folds `bytes` into a running CRC32 state. Splitting a buffer across
/// calls at any point gives the same state as one call over the whole
/// (the frame CRC relies on this to skip its own 4-byte field).
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    if accelerated(bytes.len()) {
        clmul::update(crc, bytes)
    } else {
        sliced_update(crc, bytes)
    }
}

/// Whether [`crc32_update`] takes the carry-less-multiply kernel for a
/// buffer of `len` bytes on this CPU.
fn accelerated(len: usize) -> bool {
    len >= CLMUL_MIN_LEN && clmul::detected()
}

/// The portable slice-by-8 kernel.
fn sliced_update(mut crc: u32, bytes: &[u8]) -> u32 {
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

/// The PCLMULQDQ fold-by-4 kernel. Every `unsafe` operation of the CRC
/// lives here: the `#[target_feature]` call, guarded by the runtime
/// probe, and the unaligned 16-byte loads.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Fold constants for the reflected polynomial 0xEDB88320, each
    /// x^n mod P(x) bit-reflected and shifted for the reflected domain,
    /// as the (high, low) pair `_mm_set_epi64x` takes. Fold 512 bits
    /// forward: x^(4·128−32), x^(4·128+32).
    const K1_K2: (i64, i64) = (0x1_c6e4_1596, 0x1_5444_2bd4);
    /// Fold 128 bits forward: x^(128−32), x^(128+32).
    const K3_K4: (i64, i64) = (0x0_ccaa_009e, 0x1_7519_97d0);
    /// Fold 64 bits down to 32: x^64.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: μ = ⌊x^64 / P(x)⌋ and P(x), both reflected.
    const MU_POLY: (i64, i64) = (0x1_f701_1641, 0x1_db71_0641);

    /// The CPU supports the kernel. `is_x86_feature_detected!` caches its
    /// probe, so this is a load and a bit test after the first call.
    pub fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Folds `bytes` into the running state with the carry-less-multiply
    /// kernel. Any length is accepted: buffers under 64 bytes, the last
    /// `len % 16` bytes of longer ones, and every buffer on a CPU without
    /// the features go through the tables.
    pub fn update(crc: u32, bytes: &[u8]) -> u32 {
        if !detected() {
            return super::sliced_update(crc, bytes);
        }
        // SAFETY: `fold` only requires the target features it enables,
        // and `detected` just confirmed the running CPU has both.
        unsafe { fold(crc, bytes) }
    }

    /// Reads 16 bytes as one vector.
    #[inline(always)]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("16-byte block");
        // SAFETY: `block` is 16 readable bytes and `_mm_loadu_si128` has
        // no alignment requirement; SSE2 is baseline on x86_64.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` carried 128 bits forward by the constant pair `k`, plus `data`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_16(acc: __m128i, data: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), data)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < 64 {
            return super::sliced_update(crc, bytes);
        }
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        let (head, body) = body.split_at(64);
        // The running state enters as the first 32 bits of the message.
        let mut x = [
            _mm_xor_si128(load(&head[..16]), _mm_cvtsi32_si128(crc as i32)),
            load(&head[16..32]),
            load(&head[32..48]),
            load(&head[48..]),
        ];
        let mut lines = body.chunks_exact(64);
        let k = _mm_set_epi64x(K1_K2.0, K1_K2.1);
        for line in &mut lines {
            for (i, acc) in x.iter_mut().enumerate() {
                *acc = fold_16(*acc, load(&line[16 * i..16 * (i + 1)]), k);
            }
        }
        // Four accumulators into one, then any 16-byte blocks left over.
        let k = _mm_set_epi64x(K3_K4.0, K3_K4.1);
        let mut acc = fold_16(fold_16(fold_16(x[0], x[1], k), x[2], k), x[3], k);
        for block in lines.remainder().chunks_exact(16) {
            acc = fold_16(acc, load(block), k);
        }
        // 128 → 64 bits (appending the 32 zero bits a CRC implies).
        acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k, 0x10));
        // 64 → 32 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k5 = _mm_set_epi64x(0, K5);
        acc = _mm_xor_si128(
            _mm_srli_si128(acc, 4),
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00),
        );
        // Barrett: q = ⌊acc · μ⌋ (low half), crc = acc ⊕ q · P.
        let mu_poly = _mm_set_epi64x(MU_POLY.0, MU_POLY.1);
        let q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), mu_poly, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), mu_poly, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(acc, qp), 1) as u32;
        super::sliced_update(crc, tail)
    }
}

/// Other targets have no fold; the tables serve every length.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub fn detected() -> bool {
        false
    }

    pub fn update(crc: u32, bytes: &[u8]) -> u32 {
        super::sliced_update(crc, bytes)
    }
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

    type Kernel = fn(u32, &[u8]) -> u32;

    /// The one-byte-per-step reference both kernels must agree with.
    fn bytewise_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    /// The carry-less-multiply kernel called directly, bypassing the
    /// length dispatch, when this host can run it.
    fn clmul_kernel() -> Option<Kernel> {
        clmul::detected().then_some(clmul::update as Kernel)
    }

    /// Every kernel this host runs, each called directly, so the tables
    /// stay covered on a CPU where dispatch always picks the fold.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("slice-by-8", sliced_update)];
        kernels.extend(clmul_kernel().map(|k| ("clmul", k)));
        kernels
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
        // A page-sized buffer, long enough for the fold kernel (value
        // from zlib's crc32).
        let page: Vec<u8> = (0..4096u32)
            .map(|i| ((i * i * 7 + i * 13 + 5) >> 2) as u8)
            .collect();
        assert_eq!(crc32(&page), 0x69AB_A770);
        for (name, kernel) in kernels() {
            assert_eq!(
                crc32_finish(kernel(crc32_init(), &page)),
                0x69AB_A770,
                "{name}"
            );
        }
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

    /// Every length through the fold's boundaries (under one 64-byte
    /// line, whole lines, leftover 16-byte blocks, a sub-block tail) at
    /// every start offset within a 16-byte block.
    #[test]
    fn clmul_matches_bytewise_oracle_at_every_length() {
        let Some(kernel) = clmul_kernel() else {
            return;
        };
        let buf: Vec<u8> = (0..1024 + 16u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for offset in 0..16 {
            for len in 0..=1024 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    kernel(0xDEAD_BEEF, bytes),
                    bytewise_update(0xDEAD_BEEF, bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    /// A host that reports the CPU features must take the fold for long
    /// buffers: a broken probe or threshold would otherwise fall back to
    /// the tables and pass every other test, only slower.
    #[test]
    fn dispatch_takes_the_fold_where_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            assert!(accelerated(4096));
            assert!(accelerated(CLMUL_MIN_LEN));
        }
        assert!(!accelerated(CLMUL_MIN_LEN - 1));
        assert!(!accelerated(20), "upstream records stay on the tables");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sliced and fold == bytewise at every start offset within an 8-byte
        /// word, from any running state, for lengths spanning empty,
        /// sub-word, and multi-KiB (a 4 KiB page plus header) buffers.
        #[test]
        fn sliced_matches_bytewise_oracle(
            buf in proptest::collection::vec(any::<u8>(), 0usize..=4207),
            state in any::<u32>(),
        ) {
            for (name, kernel) in kernels() {
                for offset in 0..8usize.min(buf.len() + 1) {
                    let bytes = &buf[offset..];
                    prop_assert_eq!(kernel(state, bytes), bytewise_update(state, bytes), "{}", name);
                }
            }
        }

        /// Streaming across any split point equals the one-shot value,
        /// through the dispatch and through each kernel.
        #[test]
        fn any_split_point_matches_one_shot(
            buf in proptest::collection::vec(any::<u8>(), 0usize..=4200),
            cut in any::<usize>(),
        ) {
            let cut = cut % (buf.len() + 1);
            let split = crc32_update(crc32_update(crc32_init(), &buf[..cut]), &buf[cut..]);
            prop_assert_eq!(crc32_finish(split), crc32(&buf));
            for (name, kernel) in kernels() {
                let split = kernel(kernel(crc32_init(), &buf[..cut]), &buf[cut..]);
                prop_assert_eq!(crc32_finish(split), crc32(&buf), "{}", name);
            }
        }
    }
}
