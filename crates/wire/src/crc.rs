//! CRC-32 (IEEE 802.3) used as the frame check sequence.
//!
//! Reflected form, polynomial 0x04C11DB7 — the same CRC used by Ethernet
//! and 802.11. Implemented here (rather than pulled in) because the FCS
//! is part of this crate's wire contract and must be stable.
//!
//! Two routes compute the one function, chosen per call from what the
//! code can observe (architecture, CPU features, input length):
//!
//! * **tables** — *slice-by-16*: sixteen derived tables let each loop
//!   iteration fold 16 input bytes with independent lookups (~1 byte per
//!   cycle). The portable reference, and the route every short input
//!   (control frames, tails) takes everywhere.
//! * **folded** — on `x86_64` with `pclmulqdq` + `sse4.1` detected at
//!   run time, inputs of at least 32 bytes (`FOLD_MIN`) are folded 64 bytes
//!   per iteration with carry-less multiplies and reduced 128 → 64 → 32
//!   bits (Barrett), after Intel's "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ"; the tables finish any tail shorter
//!   than 16 bytes. Roughly 9× the table throughput on a 1464-byte
//!   subframe.
//!
//! Who pays: the *build* side — the assembler writes one FCS per
//! subframe per transmit opportunity, retries included — and the checked
//! parse of copies the channel damaged. Clean receptions take the
//! trusted parse and run no CRC at all (see `docs/PERFORMANCE.md`).
//! Both routes produce bit-identical values for every input, state and
//! split (checked exhaustively over lengths in the tests below).

/// Number of slice tables (bytes folded per loop iteration).
const SLICES: usize = 16;

/// Precomputed tables for the reflected polynomial 0xEDB88320.
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, which lets the bulk
/// loop combine 16 independent lookups per iteration.
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// The table route: portable, and the reference the folded route is
/// tested against.
pub(crate) fn update_tables(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(SLICES);
    for chunk in &mut chunks {
        // Fold the current state into the first four bytes, then look
        // every byte up in its distance-matched table.
        let x = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[15][(x & 0xFF) as usize]
            ^ TABLES[14][((x >> 8) & 0xFF) as usize]
            ^ TABLES[13][((x >> 16) & 0xFF) as usize]
            ^ TABLES[12][(x >> 24) as usize];
        let mut k = 4;
        while k < SLICES {
            crc ^= TABLES[SLICES - 1 - k][chunk[k] as usize];
            k += 1;
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Shortest input worth folding: below two 16-byte blocks the set-up and
/// the final reductions cost more than the table loop they replace.
const FOLD_MIN: usize = 32;

/// True when the running CPU has what the folded route is compiled with.
fn detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when a call over `len` bytes takes the folded route on this CPU
/// — the one predicate [`update`] dispatches on.
pub(crate) fn folds(len: usize) -> bool {
    len >= FOLD_MIN && detected()
}

/// Advances the raw (un-inverted) CRC state over `data`.
#[inline]
#[cfg_attr(target_arch = "x86_64", allow(unsafe_code))]
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if folds(data.len()) {
        // SAFETY: `folds` returned true, so `pclmulqdq` and `sse4.1` —
        // the only features `folded::update` is compiled with — were
        // detected on the running CPU. (Its length requirement is a
        // panic, not a safety condition, and `folds` covers it too.)
        return unsafe { folded::update(crc, data) };
    }
    update_tables(crc, data)
}

/// Carry-less-multiply folding for the reflected polynomial 0xEDB88320.
///
/// Safe code throughout: `#[target_feature]` functions calling value
/// intrinsics, bytes loaded through `u64::from_le_bytes` — no pointers.
/// The only obligation (the CPU has the features) sits on the caller.
#[cfg(target_arch = "x86_64")]
mod folded {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32, _mm_set_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // x^n mod P(x), bit-reflected and shifted left by one, for the fold
    // distances used below (Intel white paper, table for 0xEDB88320).
    /// x^(4·128+32) and x^(4·128−32): fold a lane across 64 bytes.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128−32): fold a lane across 16 bytes.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64: the 96 → 64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) and μ = ⌊x^64 / P(x)⌋ for the Barrett reduction.
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(block[..8].try_into().expect("16-byte block"));
        let hi = u64::from_le_bytes(block[8..16].try_into().expect("16-byte block"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `acc` moved forward by the distance `keys` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Same contract as `update_tables`; `data` must hold at least one
    /// 16-byte block (callers pass ≥ `FOLD_MIN`).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let state = _mm_cvtsi32_si128(crc as i32);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut blocks = data.chunks_exact(16);

        let mut x = if data.len() >= 64 {
            // Four independent lanes, each folded across 64 bytes per
            // iteration, then collapsed into one.
            let k1k2 = _mm_set_epi64x(K2, K1);
            let mut lanes = data.chunks_exact(64);
            let first = lanes.next().expect("len >= 64");
            let mut x0 = _mm_xor_si128(load(&first[..16]), state);
            let (mut x1, mut x2, mut x3) = (load(&first[16..32]), load(&first[32..48]), load(&first[48..]));
            for quad in &mut lanes {
                x0 = fold(x0, load(&quad[..16]), k1k2);
                x1 = fold(x1, load(&quad[16..32]), k1k2);
                x2 = fold(x2, load(&quad[32..48]), k1k2);
                x3 = fold(x3, load(&quad[48..]), k1k2);
            }
            blocks = lanes.remainder().chunks_exact(16);
            let x = fold(x0, x1, k3k4);
            let x = fold(x, x2, k3k4);
            fold(x, x3, k3k4)
        } else {
            _mm_xor_si128(load(blocks.next().expect("len >= 16")), state)
        };
        for block in &mut blocks {
            x = fold(x, load(block), k3k4);
        }

        // 128 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: 64 → 32 bits. Reflected, so the remainder is the
        // *upper* half of the low quadword.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), poly_mu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::update_tables(crc, blocks.remainder())
    }
}

/// Computes the CRC-32 of `data` (init 0xFFFFFFFF, final xor 0xFFFFFFFF).
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32 for multi-slice frames.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh computation.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finishes and returns the CRC value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one bit at a time, no tables.
    fn update_bitwise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        crc
    }

    /// Deterministic noise, so every length sees fresh bytes.
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = proptest::TestRng::new(seed);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    const VECTORS: [(&[u8], u32); 4] = [
        (b"123456789", 0xCBF4_3926), // the standard CRC-32 check value
        (b"", 0x0000_0000),
        (b"a", 0xE8B7_BE43),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
    ];

    #[test]
    fn known_vectors() {
        for (data, want) in VECTORS {
            assert_eq!(crc32(data), want);
            assert_eq!(update_tables(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF, want, "table route");
        }
    }

    /// The vectors again at lengths that fold: each vector repeated to
    /// 5 KB, dispatching route against table route against the definition.
    #[test]
    fn known_vectors_at_folding_lengths() {
        for (data, _) in VECTORS.iter().filter(|(d, _)| !d.is_empty()) {
            let long: Vec<u8> = data.iter().copied().cycle().take(5120).collect();
            let want = update_bitwise(0xFFFF_FFFF, &long) ^ 0xFFFF_FFFF;
            assert_eq!(crc32(&long), want);
            assert_eq!(update_tables(0xFFFF_FFFF, &long) ^ 0xFFFF_FFFF, want);
        }
    }

    /// Fails — does not skip — when the CPU can fold and a subframe-sized
    /// call would not; otherwise says which route this machine takes.
    #[test]
    fn subframe_sized_calls_fold_when_the_cpu_can() {
        #[cfg(target_arch = "x86_64")]
        let can_fold = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let can_fold = false;
        assert_eq!(folds(1464), can_fold, "a 1464-byte subframe must take the folded route iff detected");
        assert!(!folds(FOLD_MIN - 1), "short control frames stay on the tables");
        println!("crc backend: {}", if folds(1464) { "pclmulqdq" } else { "tables" });
    }

    #[test]
    fn every_length_and_alignment_agrees_on_all_routes() {
        let buf = noise(5200 + 15, 1);
        for offset in [0usize, 1, 7, 15] {
            for len in 0..=5200usize {
                let data = &buf[offset..offset + len];
                // A different initial state per length, the all-ones
                // start included.
                let init = if len % 3 == 0 { 0xFFFF_FFFF } else { (len as u32).wrapping_mul(0x9E37_79B9) };
                let want = update_bitwise(init, data);
                assert_eq!(update_tables(init, data), want, "tables, offset {offset} len {len}");
                assert_eq!(update(init, data), want, "dispatch, offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn any_split_point_matches_oneshot() {
        let data = noise(1464, 2);
        let want = crc32(&data);
        for cut in 0..=data.len() {
            let mut inc = Crc32::new();
            inc.update(&data[..cut]);
            inc.update(&data[cut..]);
            assert_eq!(inc.finish(), want, "cut at {cut}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"frame payload with enough bytes to matter";
        let good = crc32(data);
        let mut corrupted = data.to_vec();
        for byte in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), good, "flip at {byte}:{bit} undetected");
                corrupted[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn detects_swaps() {
        let a = crc32(b"ab");
        let b = crc32(b"ba");
        assert_ne!(a, b);
    }
}
