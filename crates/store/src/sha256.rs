//! SHA-256 (FIPS 180-4) — the artifact's whole-file content digest,
//! which doubles as its content address in a catalog directory.
//!
//! Hand-rolled for the same reason as [`crate::crc32`]: no registry
//! access. Two block compressors share the padding and finalization:
//!
//! - on x86-64 CPUs with the SHA extensions (SHA-NI), a `std::arch`
//!   implementation chosen at run time by `is_x86_feature_detected!`;
//! - everywhere else, the portable scalar compressor, which is also the
//!   reference the property tests pin the accelerated path against.
//!
//! Both are pinned by the FIPS test vectors for the empty string,
//! `"abc"` and the two-block message.

const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Compresses every 64-byte block of `blocks` into `state`.
type Compressor = fn(&mut [u32; 8], &[u8]);

fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        compress_block(state, block);
    }
}

fn compress_block(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The compressor this CPU supports best, with its name. Feature
/// detection caches its answer, so calling this per digest costs one
/// atomic load.
fn compressor() -> (&'static str, Compressor) {
    #[cfg(target_arch = "x86_64")]
    {
        if shani::available() {
            return ("sha-ni", shani::compress);
        }
    }
    ("scalar", compress_scalar)
}

/// Which compressor [`sha256`] uses on this CPU: `"sha-ni"` or
/// `"scalar"`.
pub fn backend() -> &'static str {
    compressor().0
}

/// The SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    digest_with(compressor().1, data)
}

fn digest_with(compress: Compressor, data: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let full = data.len() - data.len() % 64;
    compress(&mut state, &data[..full]);

    // Padding: 0x80, zeros, then the bit length as a big-endian u64,
    // in one or two final blocks.
    let rest = &data[full..];
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut state, &tail[..tail_len]);

    let mut digest = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        digest[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    digest
}

/// The SHA extensions path: four rounds per `sha256rnds2` pair and the
/// message schedule in `sha256msg1`/`sha256msg2`, with the state kept
/// in the `ABEF`/`CDGH` lane order those instructions expect.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Feature detection caches its answer, so this costs one atomic
        // load per call and keeps the function sound for any caller.
        assert!(
            available(),
            "SHA-NI compressor called on a CPU without SHA-NI"
        );
        // SAFETY: the assertion above confirmed at run time that the CPU
        // supports every feature `compress_blocks` enables.
        unsafe { compress_blocks(state, blocks) }
    }

    /// Four rounds on message words `w` (already in lane order).
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = _mm_loadu_si128(K.as_ptr().add(4 * $i) as *const __m128i);
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }

    /// The next four message words from the previous sixteen.
    ///
    /// # Safety
    ///
    /// The CPU must support SHA-NI and SSSE3; only `compress_blocks`
    /// calls this, after its caller checked both.
    #[inline(always)]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Compresses every whole 64-byte block of `blocks` into `state`.
    /// Every load reads inside a 64-byte block, the 32-byte state, or
    /// `K` at `4 * i` for `i < 16`.
    ///
    /// # Safety
    ///
    /// The CPU must support every feature this function enables, as
    /// [`available`] reports.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each 32-bit word: the message is big-endian.
        let bswap = _mm_set_epi64x(
            0x0C0D_0E0F_0809_0A0B_u64 as i64,
            0x0405_0607_0001_0203_u64 as i64,
        );
        let state_ptr = state.as_ptr() as *const __m128i;
        let dcba = _mm_loadu_si128(state_ptr);
        let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state_ptr.add(1)), 0x1B);
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_saved, cdgh_saved) = (abef, cdgh);
            let p = block.as_ptr() as *const __m128i;
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            // Rounds 16..64: each group schedules four new words into
            // the slot of the oldest four, then consumes them.
            let mut i = 4;
            while i < 16 {
                w0 = schedule(w0, w1, w2, w3);
                rounds4!(abef, cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4!(abef, cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4!(abef, cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4!(abef, cdgh, w3, i + 3);
                i += 4;
            }
            abef = _mm_add_epi32(abef, abef_saved);
            cdgh = _mm_add_epi32(cdgh, cdgh_saved);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let out = state.as_mut_ptr() as *mut __m128i;
        _mm_storeu_si128(out, _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(out.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// Lower-case hex rendering of a digest.
pub fn hex(digest: &[u8]) -> String {
    let mut out = String::with_capacity(digest.len() * 2);
    for byte in digest {
        use std::fmt::Write;
        let _ = write!(out, "{byte:02x}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The portable reference every accelerated path must agree with.
    fn sha256_scalar(data: &[u8]) -> [u8; 32] {
        digest_with(compress_scalar, data)
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(sha256_scalar(b""), sha256(b""));
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56-byte one-vs-two-final-block edge
        // and the 64-byte block edge all hash without panicking and all
        // hash differently.
        let mut seen = std::collections::BTreeSet::new();
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xA5u8; len];
            assert!(seen.insert(sha256(&data)), "collision at len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The dispatched digest (SHA-NI where the CPU has it) equals
        // the scalar one for every length in 0..=4096 and every start
        // offset within a 16-byte vector load.
        #[test]
        fn prop_dispatched_matches_scalar(
            data in proptest::collection::vec(any::<u8>(), 0..4112),
            start in 0usize..16,
            len in 0usize..4097,
        ) {
            let start = start.min(data.len());
            let end = (start + len).min(data.len());
            let slice = &data[start..end];
            prop_assert_eq!(sha256(slice), sha256_scalar(slice));
        }
    }

    #[test]
    fn every_length_across_the_padding_edges_matches_scalar() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 31 + 7) as u8).collect();
        for start in 0..3 {
            for len in 0..=data.len() - start {
                let slice = &data[start..start + len];
                assert_eq!(
                    sha256(slice),
                    sha256_scalar(slice),
                    "start {start} len {len}"
                );
            }
        }
    }
}
