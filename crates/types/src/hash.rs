//! The workspace's one FNV-1a (64-bit) and one splitmix64. FNV-1a keys
//! favicon hashes, remap fingerprints, churn selection and fault
//! injection; several of those values persist, so known-answer vectors
//! pin it. Neither is cryptographic, and `std::hash` is not used because
//! its output may change between releases.

/// The FNV-1a 64-bit offset basis: the hash of the empty input.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a 64-bit hash `h` (start at [`FNV1A_OFFSET`]) over
/// `bytes`; hashing in pieces equals hashing the concatenation.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV1A_PRIME);
    }
    h
}

/// FNV-1a 64-bit hash of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// splitmix64: adds the golden-ratio increment, then avalanches.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv1a_extend_is_piecewise() {
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
        assert_eq!(fnv1a_extend(FNV1A_OFFSET, b""), FNV1A_OFFSET);
    }

    #[test]
    fn splitmix64_known_answer() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
