//! CRC64 checksums (CRC-64/WE: the ECMA-182 polynomial, MSB-first, init
//! and xorout all-ones) and the checksum trailer every framed byte format
//! ends with.
//!
//! One checksum implementation serves every framing layer: the per-block
//! trailers of the [`crate::SortedRun`] format, the manifest and
//! manifest-log records in `hsq-core` and the wire frames in
//! `hsq-service`. Each of them is `payload ‖ crc64(payload)` as 8
//! little-endian bytes, written by [`seal`] and checked by [`open`].
//!
//! Every block a query or a merge reads is verified, so the kernel's
//! speed is the read path's. On a 2-vCPU x86_64 host the slicing-by-16
//! table walk takes ≈ 2.6 µs per 4,088-byte block (≈ 650 ns/KiB), 61 %
//! of a whole verified `FileDevice` block read (≈ 4.4 µs). On x86_64 CPUs
//! with `pclmulqdq` and `sse4.1`, inputs of 64 bytes or more instead take
//! a carry-less multiply fold (Gopal et al., *Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ*, Intel, 2009): four 128-bit lanes
//! are folded forward 64 bytes at a time by `x^576` / `x^512 mod P`,
//! combined by `x^192` / `x^128`, and the 128-bit remainder and the
//! < 16-byte tail are finished by the table kernel. That is ≈ 0.28 µs
//! per block (≈ 70 ns/KiB), and the verified read ≈ 1.9 µs. Both paths
//! compute the same checksum bit for bit; shorter inputs and other
//! architectures take the table kernel alone.

/// Bytes of a checksum trailer: the payload's [`crc64`], little-endian.
pub const TRAILER_LEN: usize = 8;

/// The CRC-64/ECMA-182 generator polynomial (without its `x^64` term).
const POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// Slicing-by-16 lookup tables, built at compile time. `TABLES[0]` is the
/// classic one-byte table; `TABLES[j][b]` is byte `b`'s contribution when
/// it is followed by `j` more bytes in the same 16-byte chunk.
static TABLES: [[u64; 256]; 16] = {
    let mut t = [[0u64; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u64) << 56;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & (1 << 63) != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev << 8) ^ t[0][(prev >> 56) as usize];
            i += 1;
        }
        j += 1;
    }
    t
};

/// CRC64 (CRC-64/WE) over `bytes`.
///
/// Bit-for-bit identical to the bitwise implementation the manifest format
/// shipped with, so existing runs, manifests, logs and frames verify
/// unchanged.
pub fn crc64(bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc64(bytes) {
        return crc;
    }
    !update(u64::MAX, bytes)
}

/// The slicing-by-16 table kernel: the CRC register `crc` advanced over
/// `bytes` (no init, no xorout).
fn update(mut crc: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let x = crc ^ u64::from_be_bytes(chunk[..8].try_into().expect("8 bytes"));
        let y = u64::from_be_bytes(chunk[8..].try_into().expect("8 bytes"));
        crc = TABLES[15][(x >> 56) as usize]
            ^ TABLES[14][((x >> 48) & 0xff) as usize]
            ^ TABLES[13][((x >> 40) & 0xff) as usize]
            ^ TABLES[12][((x >> 32) & 0xff) as usize]
            ^ TABLES[11][((x >> 24) & 0xff) as usize]
            ^ TABLES[10][((x >> 16) & 0xff) as usize]
            ^ TABLES[9][((x >> 8) & 0xff) as usize]
            ^ TABLES[8][(x & 0xff) as usize]
            ^ TABLES[7][(y >> 56) as usize]
            ^ TABLES[6][((y >> 48) & 0xff) as usize]
            ^ TABLES[5][((y >> 40) & 0xff) as usize]
            ^ TABLES[4][((y >> 32) & 0xff) as usize]
            ^ TABLES[3][((y >> 24) & 0xff) as usize]
            ^ TABLES[2][((y >> 16) & 0xff) as usize]
            ^ TABLES[1][((y >> 8) & 0xff) as usize]
            ^ TABLES[0][(y & 0xff) as usize];
    }
    for &b in chunks.remainder() {
        let idx = ((crc >> 56) as u8 ^ b) as usize;
        crc = (crc << 8) ^ TABLES[0][idx];
    }
    crc
}

/// `x^n mod P`, the multiplier that moves a 64-bit value `n` bits forward
/// in the message.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const fn xpow_mod(n: u32) -> u64 {
    let mut r = 1u64;
    let mut i = 0;
    while i < n {
        r = if r & (1 << 63) != 0 {
            (r << 1) ^ POLY
        } else {
            r << 1
        };
        i += 1;
    }
    r
}

/// Append the checksum trailer — [`crc64`] of everything in `buf`,
/// little-endian — to `buf`.
pub fn seal(buf: &mut Vec<u8>) {
    let crc = crc64(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// A trailer that does not match its payload, as [`open`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// The checksum the trailer holds.
    pub stored: u64,
    /// The checksum of the payload as read.
    pub computed: u64,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { stored, computed } = self;
        write!(f, "stored {stored:#018x}, computed {computed:#018x}")
    }
}

/// Split `sealed` into `payload ‖ trailer` and verify the trailer: the
/// payload if it matches, the stored and computed checksums if not.
///
/// # Panics
///
/// If `sealed` is shorter than [`TRAILER_LEN`]; every format bounds its
/// frame length before it looks for the trailer.
pub fn open(sealed: &[u8]) -> Result<&[u8], Mismatch> {
    let (payload, trailer) = sealed
        .split_last_chunk::<TRAILER_LEN>()
        .expect("sealed input holds a trailer");
    match (u64::from_le_bytes(*trailer), crc64(payload)) {
        (stored, computed) if stored == computed => Ok(payload),
        (stored, computed) => Err(Mismatch { stored, computed }),
    }
}

/// The carry-less multiply fold. The only `unsafe` in the crate: the
/// 16-byte loads, and entering functions compiled for `pclmulqdq` and
/// `sse4.1` after detecting both at runtime.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_extract_epi64, _mm_loadu_si128,
        _mm_set_epi64x, _mm_set_epi8, _mm_shuffle_epi8, _mm_xor_si128,
    };

    use super::{update, xpow_mod};

    /// Shortest input the fold takes: one chunk for each of its four lanes.
    const MIN_LEN: usize = 64;

    /// `(x^576, x^512) mod P`: a lane's high and low halves moved 64 bytes
    /// forward, the stride of four lanes.
    const BY_64_BYTES: (u64, u64) = (xpow_mod(576), xpow_mod(512));

    /// `(x^192, x^128) mod P`: the same moved 16 bytes forward, one chunk.
    const BY_16_BYTES: (u64, u64) = (xpow_mod(192), xpow_mod(128));

    /// [`super::crc64`] by folding, or `None` when `bytes` is short or the
    /// CPU lacks the instructions.
    pub(super) fn crc64(bytes: &[u8]) -> Option<u64> {
        if bytes.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        // SAFETY: `fold` needs `pclmulqdq` and `sse4.1`, and the CPU has
        // both (detected just above).
        let (remainder, tail) = unsafe { fold(bytes) };
        Some(!update(update(0, &remainder), tail))
    }

    /// Fold the whole 16-byte chunks of `bytes` (at least four) into one
    /// 128-bit value congruent to them, init included, modulo `P`.
    /// Returns it as 16 big-endian bytes — the message the table kernel
    /// finishes from register 0 — with the < 16-byte tail.
    ///
    /// Calling it from code not compiled for `pclmulqdq` and `sse4.1` is
    /// `unsafe`: the CPU must have both, as [`crc64`] checks first.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(bytes: &[u8]) -> ([u8; 16], &[u8]) {
        let by_64_bytes = _mm_set_epi64x(BY_64_BYTES.0 as i64, BY_64_BYTES.1 as i64);
        let by_16_bytes = _mm_set_epi64x(BY_16_BYTES.0 as i64, BY_16_BYTES.1 as i64);
        let (chunks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = chunks.split_first_chunk::<4>().expect("64 bytes");
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        // The init value XORs into the message's first 64 bits.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_set_epi64x(-1, 0));
        let (strides, singles) = rest.as_chunks::<4>();
        for stride in strides {
            for (lane, chunk) in lanes.iter_mut().zip(stride) {
                *lane = fold_into(*lane, by_64_bytes, load(chunk));
            }
        }
        let mut acc = lanes[0];
        for &lane in &lanes[1..] {
            acc = fold_into(acc, by_16_bytes, lane);
        }
        for chunk in singles {
            acc = fold_into(acc, by_16_bytes, load(chunk));
        }
        let hi = _mm_extract_epi64::<1>(acc) as u64;
        let lo = _mm_cvtsi128_si64(acc) as u64;
        ((u128::from(hi) << 64 | u128::from(lo)).to_be_bytes(), tail)
    }

    /// `acc` moved forward by the distance `k` encodes (its high half
    /// times `k`'s high half, its low half times `k`'s low half), XOR
    /// `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        _mm_xor_si128(_mm_xor_si128(hi, lo), next)
    }

    /// A 16-byte chunk as a 128-bit polynomial: byte-reversed, so the
    /// message's first byte holds the highest coefficients.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(chunk: &[u8; 16]) -> __m128i {
        // SAFETY: `chunk` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        let v = unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) };
        _mm_shuffle_epi8(
            v,
            _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-table implementation (one bit at a time), kept as the
    /// reference both kernels must match: the register after `bytes`.
    fn bitwise_update(mut crc: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            crc ^= (b as u64) << 56;
            for _ in 0..8 {
                if crc & (1 << 63) != 0 {
                    crc = (crc << 1) ^ POLY;
                } else {
                    crc <<= 1;
                }
            }
        }
        crc
    }

    /// The table kernel alone, whatever this CPU supports.
    fn crc64_table(bytes: &[u8]) -> u64 {
        !update(u64::MAX, bytes)
    }

    /// A deterministic 4,088-byte block: the payload of one 4,096-byte
    /// run block.
    fn block() -> Vec<u8> {
        (0..4088u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect()
    }

    #[test]
    fn golden_vectors() {
        // The CRC-64/WE check value, and a block trailer computed by the
        // table kernel the format shipped with.
        assert_eq!(crc64(b"123456789"), 0x62EC_59E3_F1A4_F00A);
        assert_eq!(crc64_table(b"123456789"), 0x62EC_59E3_F1A4_F00A);
        assert_eq!(crc64(&block()), 0xFF4B_C8B5_85C3_5B37);
        assert_eq!(crc64_table(&block()), 0xFF4B_C8B5_85C3_5B37);
    }

    #[test]
    fn fold_constants_are_powers_of_x() {
        assert_eq!(xpow_mod(0), 1);
        assert_eq!(xpow_mod(63), 1 << 63);
        assert_eq!(xpow_mod(64), POLY);
        // Eight more powers of x are one zero byte through the register.
        for n in [64, 120, 128, 184, 192, 504, 512, 568, 576] {
            assert_eq!(xpow_mod(n + 8), bitwise_update(xpow_mod(n), &[0]), "x^{n}");
        }
    }

    #[test]
    fn both_kernels_match_bitwise_reference() {
        // Every length 0..=4,200 and pseudo-random lengths up to 70 KB,
        // each at start offsets 0..16 of one buffer, so every alignment
        // and every tail length meets both the fold and its hand-off.
        const LONG: usize = 70_000;
        let buf: Vec<u8> = (0..LONG as u32 + 16)
            .map(|i| (i.wrapping_mul(0x9E37_79B9).rotate_left(7) >> 13) as u8)
            .collect();
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let random_lens: Vec<usize> = (0..8)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                4_201 + (seed % (LONG - 4_200) as u64) as usize
            })
            .chain([LONG])
            .collect();
        for offset in 0..16 {
            let data = &buf[offset..offset + LONG];
            // The reference after every prefix, in one pass.
            let mut reference = Vec::with_capacity(LONG + 1);
            let mut reg = u64::MAX;
            reference.push(!reg);
            for &b in data {
                reg = bitwise_update(reg, &[b]);
                reference.push(!reg);
            }
            for len in (0..=4_200).chain(random_lens.iter().copied()) {
                let want = reference[len];
                assert_eq!(crc64(&data[..len]), want, "len {len} offset {offset}");
                assert_eq!(crc64_table(&data[..len]), want, "len {len} offset {offset}");
            }
        }
    }

    #[test]
    fn detects_every_single_bit_flip_in_a_block() {
        let mut data = block();
        let clean = crc64(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc64(&data), clean, "flip {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn distinct_inputs_distinct_sums() {
        assert_ne!(crc64(b"hello"), crc64(b"hellp"));
        assert_ne!(crc64(b""), crc64(b"\0"));
    }

    #[test]
    fn open_verifies_what_seal_appends() {
        let mut sealed = block();
        seal(&mut sealed);
        assert_eq!(sealed.len(), 4088 + TRAILER_LEN);
        assert_eq!(sealed[4088..], 0xFF4B_C8B5_85C3_5B37u64.to_le_bytes());
        assert_eq!(open(&sealed), Ok(&block()[..]));
        let mut empty = Vec::new();
        seal(&mut empty);
        assert_eq!(open(&empty), Ok(&[][..]));

        sealed[17] ^= 0x40;
        let err = open(&sealed).unwrap_err();
        assert_eq!(err.stored, 0xFF4B_C8B5_85C3_5B37);
        assert_eq!(err.computed, crc64(&sealed[..4088]));
        assert_eq!(
            err.to_string(),
            format!("stored 0xff4bc8b585c35b37, computed {:#018x}", err.computed)
        );
    }
}
