//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over byte
//! slices — the per-section checksum of the artifact format.
//!
//! The store cannot pull a checksum crate (the build environment is
//! offline), so this is hand-rolled slicing-by-8: eight derived
//! 256-entry tables fold eight input bytes per step instead of one.
//! The classic one-table bytewise loop stays as the tail handler and
//! as the reference the property tests pin the fast path against. Both
//! are pinned by the standard check value `crc32(b"123456789") ==
//! 0xCBF43926`.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

fn update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// The CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFF_u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    !update_bytewise(crc, chunks.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table reference the slicing path must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !update_bytewise(0xFFFF_FFFF, data)
    }

    #[test]
    fn standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let clean = b"the library is unlimited and cyclical".to_vec();
        let reference = crc32(&clean);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut flipped = clean.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Slicing-by-8 equals the bytewise loop for every length in
        // 0..=4096 and every start offset within an 8-byte word.
        #[test]
        fn prop_slicing_by_8_matches_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..4104),
            start in 0usize..8,
            len in 0usize..4097,
        ) {
            let start = start.min(data.len());
            let end = (start + len).min(data.len());
            let slice = &data[start..end];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}
