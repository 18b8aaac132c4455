//! The length-prefixed sectioned container: magic, versioned header
//! with its own CRC32, named checksummed sections, and a whole-file
//! SHA-256 footer.
//!
//! ```text
//! offset  bytes  field
//! 0       8      magic "BORGSTOR"
//! 8       4      format version (u32 LE)       — container layout
//! 12      4      schema version (u32 LE)       — world payload schema
//! 16      4      section count (u32 LE)
//! 20      4      CRC32 of bytes [0, 20)
//! --- per section, section-count times ---
//!         2      name length (u16 LE)
//!         n      name (UTF-8)
//!         8      payload length (u64 LE)
//!         p      payload
//!         4      CRC32 of payload
//! --- footer ---
//!         8      magic "BORGDGST"
//!         32     SHA-256 of every preceding byte
//! ```
//!
//! Decoding validates outside-in and fails with the *first* structural
//! lie it meets, so every corruption class maps to one
//! [`StoreError`] variant: short/garbled header → [`StoreError::Truncated`] /
//! [`StoreError::BadMagic`] / [`StoreError::HeaderCorrupt`], foreign
//! versions → [`StoreError::SchemaMismatch`], a section running past
//! end-of-file → [`StoreError::Truncated`], a payload flip →
//! [`StoreError::SectionChecksum`], a damaged footer →
//! [`StoreError::FooterMissing`] / [`StoreError::DigestMismatch`].

use crate::error::StoreError;
use crate::{crc32::crc32, sha256::sha256};

/// Leading file magic.
pub const MAGIC: &[u8; 8] = b"BORGSTOR";
/// Footer magic introducing the whole-file digest.
pub const FOOTER_MAGIC: &[u8; 8] = b"BORGDGST";
/// Container layout version this module reads and writes.
pub const FORMAT_VERSION: u32 = 1;

const HEADER_LEN: usize = 24;
const FOOTER_LEN: usize = 8 + 32;

/// One named payload inside a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// The section name (ASCII by convention, UTF-8 by contract).
    pub name: String,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

/// A decoded, fully validated container.
#[derive(Debug)]
pub struct Container {
    /// Container layout version from the header.
    pub format_version: u32,
    /// World payload schema version from the header.
    pub schema_version: u32,
    /// The sections, in file order.
    pub sections: Vec<Section>,
    /// The whole-file SHA-256 from the footer (already verified).
    pub digest: [u8; 32],
}

/// Serializes `sections` into a complete container, footer included.
pub fn encode_container(schema_version: u32, sections: &[Section]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&schema_version.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());

    for section in sections {
        let name = section.name.as_bytes();
        assert!(name.len() <= u16::MAX as usize, "section name too long");
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(section.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&section.payload);
        out.extend_from_slice(&crc32(&section.payload).to_le_bytes());
    }

    let digest = sha256(&out);
    out.extend_from_slice(FOOTER_MAGIC);
    out.extend_from_slice(&digest);
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.bytes.len() - self.pos < n {
            return Err(StoreError::Truncated {
                detail: format!(
                    "{what}: need {n} bytes at offset {}, file has {}",
                    self.pos,
                    self.bytes.len()
                ),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u16_le(&mut self, what: &str) -> Result<u16, StoreError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32_le(&mut self, what: &str) -> Result<u32, StoreError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64_le(&mut self, what: &str) -> Result<u64, StoreError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Parses and validates a container: header CRC, versions, section
/// bounds and checksums, footer digest. `expected_schema` is the world
/// schema this reader understands.
pub fn decode_container(bytes: &[u8], expected_schema: u32) -> Result<Container, StoreError> {
    if bytes.len() < 8 {
        return Err(StoreError::Truncated {
            detail: format!("file is {} bytes, shorter than the magic", bytes.len()),
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            detail: format!("file is {} bytes, shorter than the header", bytes.len()),
        });
    }
    let stored_header_crc = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    if crc32(&bytes[..20]) != stored_header_crc {
        return Err(StoreError::HeaderCorrupt);
    }
    let format_version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if format_version != FORMAT_VERSION {
        return Err(StoreError::SchemaMismatch {
            found: format_version,
            expected: FORMAT_VERSION,
        });
    }
    let schema_version = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    if schema_version != expected_schema {
        return Err(StoreError::SchemaMismatch {
            found: schema_version,
            expected: expected_schema,
        });
    }
    let section_count = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);

    let mut cursor = Cursor {
        bytes,
        pos: HEADER_LEN,
    };
    // The count is only CRC-protected, and a CRC is forgeable: reserve
    // no more sections than the remaining bytes could hold, so a
    // hostile count fails as `Truncated` below instead of aborting on
    // an allocation. Every section takes at least its name length,
    // payload length and checksum fields.
    const MIN_SECTION_LEN: usize = 2 + 8 + 4;
    let fit = (bytes.len() - HEADER_LEN) / MIN_SECTION_LEN;
    let mut sections = Vec::with_capacity((section_count as usize).min(fit));
    for index in 0..section_count {
        let name_len = cursor.u16_le(&format!("section #{index} name length"))? as usize;
        let name_bytes = cursor.take(name_len, &format!("section #{index} name"))?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| StoreError::Decode {
                section: format!("#{index}"),
                detail: "section name is not UTF-8".into(),
            })?
            .to_string();
        let payload_len = cursor.u64_le(&format!("section {name:?} payload length"))?;
        let payload_len = usize::try_from(payload_len).map_err(|_| StoreError::Truncated {
            detail: format!("section {name:?} claims {payload_len} bytes"),
        })?;
        let payload = cursor
            .take(payload_len, &format!("section {name:?} payload"))?
            .to_vec();
        let stored_crc = cursor.u32_le(&format!("section {name:?} checksum"))?;
        if crc32(&payload) != stored_crc {
            return Err(StoreError::SectionChecksum { section: name });
        }
        sections.push(Section { name, payload });
    }

    let body_len = cursor.pos;
    let remaining = bytes.len() - body_len;
    if remaining < FOOTER_LEN {
        return Err(StoreError::FooterMissing);
    }
    if remaining > FOOTER_LEN {
        return Err(StoreError::Truncated {
            detail: format!("{} trailing bytes after the footer", remaining - FOOTER_LEN),
        });
    }
    if &bytes[body_len..body_len + 8] != FOOTER_MAGIC {
        return Err(StoreError::FooterMissing);
    }
    let mut digest = [0u8; 32];
    digest.copy_from_slice(&bytes[body_len + 8..]);
    if sha256(&bytes[..body_len]) != digest {
        return Err(StoreError::DigestMismatch);
    }

    Ok(Container {
        format_version,
        schema_version,
        sections,
        digest,
    })
}

/// The byte offsets at which each structural element of `bytes`
/// begins — header, each section, footer. Truncating at (or inside)
/// any of these is the corruption-matrix test's section-boundary
/// sweep. Assumes `bytes` is a valid container.
pub fn element_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = vec![0, 8, HEADER_LEN];
    let section_count = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    let mut pos = HEADER_LEN;
    for _ in 0..section_count {
        offsets.push(pos);
        let name_len = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]) as usize;
        pos += 2 + name_len;
        let payload_len = u64::from_le_bytes([
            bytes[pos],
            bytes[pos + 1],
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]) as usize;
        pos += 8 + payload_len + 4;
    }
    offsets.push(pos); // footer magic
    offsets.push(pos + 8); // digest
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        encode_container(
            7,
            &[
                Section {
                    name: "meta".into(),
                    payload: br#"{"inner":"v1"}"#.to_vec(),
                },
                Section {
                    name: "slots".into(),
                    payload: vec![0xAB; 300],
                },
                Section {
                    name: "empty".into(),
                    payload: Vec::new(),
                },
            ],
        )
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let container = decode_container(&bytes, 7).unwrap();
        assert_eq!(container.format_version, FORMAT_VERSION);
        assert_eq!(container.schema_version, 7);
        assert_eq!(container.sections.len(), 3);
        assert_eq!(container.sections[0].name, "meta");
        assert_eq!(container.sections[1].payload.len(), 300);
        // Encoding is canonical: re-encoding the decoded sections
        // reproduces the file byte for byte.
        assert_eq!(encode_container(7, &container.sections), bytes);
    }

    #[test]
    fn truncation_at_every_element_boundary() {
        let bytes = sample();
        for &offset in &element_offsets(&bytes) {
            if offset == bytes.len() {
                continue;
            }
            let err = decode_container(&bytes[..offset], 7).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. } | StoreError::FooterMissing
                ),
                "cut at {offset}: got {err:?}"
            );
        }
    }

    #[test]
    fn wrong_magic() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode_container(&bytes, 7).unwrap_err(),
            StoreError::BadMagic
        ));
    }

    #[test]
    fn header_flip_is_header_corrupt() {
        let mut bytes = sample();
        bytes[16] ^= 0x01; // section count
        assert!(matches!(
            decode_container(&bytes, 7).unwrap_err(),
            StoreError::HeaderCorrupt
        ));
    }

    #[test]
    fn version_mismatches() {
        let other_schema = encode_container(8, &[]);
        assert!(matches!(
            decode_container(&other_schema, 7).unwrap_err(),
            StoreError::SchemaMismatch {
                found: 8,
                expected: 7
            }
        ));
    }

    #[test]
    fn payload_flip_is_section_checksum() {
        let bytes = sample();
        let offsets = element_offsets(&bytes);
        // Flip a byte inside the second section's 300-byte payload.
        let mut flipped = bytes.clone();
        let inside = offsets[4] + 2 + "slots".len() + 8 + 150;
        flipped[inside] ^= 0x40;
        match decode_container(&flipped, 7).unwrap_err() {
            StoreError::SectionChecksum { section } => assert_eq!(section, "slots"),
            other => panic!("expected SectionChecksum, got {other:?}"),
        }
    }

    #[test]
    fn footer_damage() {
        let bytes = sample();
        let mut no_footer = bytes.clone();
        no_footer.truncate(bytes.len() - 35);
        assert!(matches!(
            decode_container(&no_footer, 7).unwrap_err(),
            StoreError::FooterMissing
        ));

        let mut bad_digest = bytes.clone();
        let last = bad_digest.len() - 1;
        bad_digest[last] ^= 0x01;
        assert!(matches!(
            decode_container(&bad_digest, 7).unwrap_err(),
            StoreError::DigestMismatch
        ));

        let mut trailing = bytes.clone();
        trailing.push(0x00);
        assert!(matches!(
            decode_container(&trailing, 7).unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn forged_huge_section_count_is_truncated() {
        // A header-only file with a valid CRC claiming u32::MAX sections.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(bytes.len(), HEADER_LEN);
        assert!(matches!(
            decode_container(&bytes, 7).unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn empty_input_is_truncated() {
        assert!(matches!(
            decode_container(&[], 7).unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }
}
