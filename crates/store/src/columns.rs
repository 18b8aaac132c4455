//! Little-endian column primitives for the schema-2 world payloads
//! (DESIGN.md §12).
//!
//! A section payload is a fixed sequence of tables. A table is a `u32`
//! row count followed by its columns, each of which is one of:
//!
//! - a fixed-width column: `n` × `u8`, `u32` or `u64`, little-endian;
//! - a string column: `n` × `u32` end offsets into one UTF-8 blob, then
//!   the blob (row `i` is `blob[end[i-1]..end[i]]`, with `end[-1] = 0`);
//! - a CSR column: `n` × `u32` end offsets counted in items, then the
//!   flat `u32` values (`width` per item: 1 for member lists, 2 for
//!   `(a, b)` edges).
//!
//! [`ColumnReader`] is the only decoder, and it accepts exactly the
//! bytes [`ColumnWriter`] produces: offsets must be non-decreasing and
//! end where the data ends, tag bytes must be 0 or 1, string rows must
//! be valid UTF-8 cut at character boundaries, and a payload must end
//! where its last column ends. Every other byte sequence is a
//! [`StoreError::Decode`] naming the section. Lengths are checked
//! against the bytes actually present before anything is allocated, so
//! a corrupt count cannot request a huge buffer.

use crate::error::StoreError;

/// Appends columns to one section payload.
#[derive(Debug, Default)]
pub struct ColumnWriter {
    out: Vec<u8>,
}

fn count(n: usize) -> u32 {
    u32::try_from(n).expect("a world column never exceeds u32::MAX entries")
}

impl ColumnWriter {
    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// One `u32`.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// One `u64`.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// A table's row count.
    pub fn rows(&mut self, n: usize) {
        self.u32(count(n));
    }

    /// A single length-prefixed string (`u32` byte length, UTF-8).
    pub fn str(&mut self, s: &str) {
        self.rows(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }

    /// A `u32` column.
    pub fn u32s(&mut self, values: impl IntoIterator<Item = u32>) {
        for v in values {
            self.u32(v);
        }
    }

    /// A `u64` column.
    pub fn u64s(&mut self, values: impl IntoIterator<Item = u64>) {
        for v in values {
            self.u64(v);
        }
    }

    /// A one-byte-per-row tag column (`false` → 0, `true` → 1).
    pub fn flags(&mut self, values: impl IntoIterator<Item = bool>) {
        self.out.extend(values.into_iter().map(u8::from));
    }

    /// A string column: end offsets, then the blob.
    pub fn strings<'s>(&mut self, values: impl Iterator<Item = &'s str> + Clone) {
        let mut end = 0usize;
        for s in values.clone() {
            end += s.len();
            self.u32(count(end));
        }
        for s in values {
            self.out.extend_from_slice(s.as_bytes());
        }
    }

    /// A CSR column of `u32` items (`width` = 1): end offsets, then the
    /// flat values.
    pub fn csr<'v>(&mut self, rows: impl Iterator<Item = &'v [u32]> + Clone) {
        let mut end = 0usize;
        for row in rows.clone() {
            end += row.len();
            self.u32(count(end));
        }
        for row in rows {
            for &v in row {
                self.u32(v);
            }
        }
    }

    /// A CSR column of `(u32, u32)` items (`width` = 2).
    pub fn csr_pairs<R>(&mut self, rows: impl Iterator<Item = R> + Clone)
    where
        R: ExactSizeIterator<Item = (u32, u32)>,
    {
        let mut end = 0usize;
        for row in rows.clone() {
            end += row.len();
            self.u32(count(end));
        }
        for row in rows {
            for (a, b) in row {
                self.u32(a);
                self.u32(b);
            }
        }
    }
}

/// Reads columns back out of one section payload, refusing anything
/// [`ColumnWriter`] would not have written.
#[derive(Debug)]
pub struct ColumnReader<'a> {
    section: &'static str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ColumnReader<'a> {
    /// A reader over the payload of `section`.
    pub fn new(section: &'static str, bytes: &'a [u8]) -> Self {
        ColumnReader {
            section,
            bytes,
            pos: 0,
        }
    }

    /// A [`StoreError::Decode`] naming this reader's section.
    pub fn error(&self, detail: impl Into<String>) -> StoreError {
        StoreError::Decode {
            section: self.section.to_string(),
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        let left = self.bytes.len() - self.pos;
        if n > left {
            return Err(self.error(format!(
                "{what}: needs {n} bytes at offset {}, {left} left",
                self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// `n` items of `width` bytes each, bounds-checked before use.
    fn take_items(&mut self, n: usize, width: usize, what: &str) -> Result<&'a [u8], StoreError> {
        let bytes = n
            .checked_mul(width)
            .ok_or_else(|| self.error(format!("{what}: {n} rows overflow")))?;
        self.take(bytes, what)
    }

    /// One `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// One `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// One `u64` counter that must fit this platform's `usize`.
    pub fn usize(&mut self, what: &str) -> Result<usize, StoreError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| self.error(format!("{what}: {v} overflows usize")))
    }

    /// A table's row count.
    pub fn rows(&mut self, what: &str) -> Result<usize, StoreError> {
        Ok(self.u32(what)? as usize)
    }

    /// A single length-prefixed string.
    pub fn str(&mut self, what: &str) -> Result<String, StoreError> {
        let len = self.rows(what)?;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| self.error(format!("{what}: not UTF-8")))
    }

    /// A `u32` column of `n` rows.
    pub fn u32s(&mut self, n: usize, what: &str) -> Result<Vec<u32>, StoreError> {
        Ok(self
            .take_items(n, 4, what)?
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// A `u64` column of `n` rows.
    pub fn u64s(&mut self, n: usize, what: &str) -> Result<Vec<u64>, StoreError> {
        Ok(self
            .take_items(n, 8, what)?
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect())
    }

    /// A tag column of `n` rows; every byte must be 0 or 1.
    pub fn flags(&mut self, n: usize, what: &str) -> Result<Vec<bool>, StoreError> {
        let bytes = self.take_items(n, 1, what)?;
        bytes
            .iter()
            .enumerate()
            .map(|(row, &b)| match b {
                0 => Ok(false),
                1 => Ok(true),
                other => Err(self.error(format!("{what}: row {row} has tag byte {other}"))),
            })
            .collect()
    }

    /// An end-offset table of `n` rows: non-decreasing, as `usize`.
    fn ends(&mut self, n: usize, what: &str) -> Result<Vec<usize>, StoreError> {
        let raw = self.u32s(n, what)?;
        let mut prev = 0u32;
        let mut ends = Vec::with_capacity(n);
        for (row, &end) in raw.iter().enumerate() {
            if end < prev {
                return Err(self.error(format!(
                    "{what}: offset table goes backwards at row {row} ({end} < {prev})"
                )));
            }
            prev = end;
            ends.push(end as usize);
        }
        Ok(ends)
    }

    /// A string column of `n` rows.
    pub fn strings(&mut self, n: usize, what: &str) -> Result<Vec<String>, StoreError> {
        let ends = self.ends(n, what)?;
        let blob = self.take(ends.last().copied().unwrap_or(0), what)?;
        let blob =
            std::str::from_utf8(blob).map_err(|_| self.error(format!("{what}: not UTF-8")))?;
        let mut start = 0;
        let mut out = Vec::with_capacity(n);
        for (row, &end) in ends.iter().enumerate() {
            let s = blob
                .get(start..end)
                .ok_or_else(|| self.error(format!("{what}: row {row} splits a UTF-8 character")))?;
            out.push(s.to_string());
            start = end;
        }
        Ok(out)
    }

    /// A CSR column of `n` rows of `u32` items: the end offsets and the
    /// flat values (use [`rows_of`] to split them).
    pub fn csr(&mut self, n: usize, what: &str) -> Result<Csr, StoreError> {
        self.csr_wide(n, 1, what)
    }

    /// A CSR column of `n` rows of `(u32, u32)` items.
    pub fn csr_pairs(&mut self, n: usize, what: &str) -> Result<Csr, StoreError> {
        self.csr_wide(n, 2, what)
    }

    fn csr_wide(&mut self, n: usize, width: usize, what: &str) -> Result<Csr, StoreError> {
        let ends = self.ends(n, what)?;
        let items = ends.last().copied().unwrap_or(0);
        let values = self.u32s(
            items
                .checked_mul(width)
                .ok_or_else(|| self.error(format!("{what}: {items} items overflow")))?,
            what,
        )?;
        Ok(Csr {
            ends,
            values,
            width,
        })
    }

    /// Refuses trailing bytes after the last column.
    pub fn finish(self) -> Result<(), StoreError> {
        let left = self.bytes.len() - self.pos;
        if left != 0 {
            return Err(self.error(format!("{left} trailing bytes after the last column")));
        }
        Ok(())
    }
}

/// A decoded CSR column: `ends[i]` items end row `i`; each item is
/// `width` consecutive `values`.
#[derive(Debug)]
pub struct Csr {
    ends: Vec<usize>,
    values: Vec<u32>,
    width: usize,
}

impl Csr {
    /// The rows, as slices of the flat values (each `width` × items).
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let row = &self.values[start * self.width..end * self.width];
            start = end;
            row
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_round_trip() {
        let mut w = ColumnWriter::default();
        w.rows(3);
        w.u32s([1, u32::MAX, 7]);
        w.u64s([u64::MAX, 0, 9]);
        w.flags([true, false, true]);
        w.strings(["", "Straße", "AS-7"].into_iter());
        w.csr([&[][..], &[5, 6][..], &[7][..]].into_iter());
        w.csr_pairs(
            [vec![(1, 2)], vec![], vec![(3, 4), (5, 6)]]
                .into_iter()
                .map(|r| r.into_iter()),
        );
        w.str("borges");
        let bytes = w.into_bytes();

        let mut r = ColumnReader::new("t", &bytes);
        let n = r.rows("n").unwrap();
        assert_eq!(r.u32s(n, "a").unwrap(), [1, u32::MAX, 7]);
        assert_eq!(r.u64s(n, "b").unwrap(), [u64::MAX, 0, 9]);
        assert_eq!(r.flags(n, "c").unwrap(), [true, false, true]);
        assert_eq!(r.strings(n, "d").unwrap(), ["", "Straße", "AS-7"]);
        let csr = r.csr(n, "e").unwrap();
        let rows: Vec<&[u32]> = csr.rows().collect();
        assert_eq!(rows, [&[][..], &[5, 6][..], &[7][..]]);
        let pairs = r.csr_pairs(n, "f").unwrap();
        let rows: Vec<&[u32]> = pairs.rows().collect();
        assert_eq!(rows, [&[1, 2][..], &[][..], &[3, 4, 5, 6][..]]);
        assert_eq!(r.str("g").unwrap(), "borges");
        r.finish().unwrap();
    }

    fn decode_err(
        bytes: &[u8],
        read: impl FnOnce(&mut ColumnReader<'_>) -> Result<(), StoreError>,
    ) -> String {
        let mut r = ColumnReader::new("probe", bytes);
        let err = read(&mut r).and_then(|()| r.finish()).unwrap_err();
        match err {
            StoreError::Decode { section, detail } => {
                assert_eq!(section, "probe");
                detail
            }
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn non_canonical_bytes_are_refused() {
        let le = |v: &[u32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        // An offset table that goes backwards.
        let mut bytes = le(&[3, 1]);
        bytes.extend_from_slice(b"abc");
        assert!(decode_err(&bytes, |r| r.strings(2, "s").map(drop)).contains("backwards"));
        // An offset past the end of the data.
        let bytes = le(&[9]);
        assert!(decode_err(&bytes, |r| r.strings(1, "s").map(drop)).contains("needs 9 bytes"));
        // A row boundary inside a multi-byte character.
        let mut bytes = le(&[1, 2]);
        bytes.extend_from_slice("ß".as_bytes());
        assert!(decode_err(&bytes, |r| r.strings(2, "s").map(drop)).contains("splits"));
        // Invalid UTF-8.
        let mut bytes = le(&[1]);
        bytes.push(0xFF);
        assert!(decode_err(&bytes, |r| r.strings(1, "s").map(drop)).contains("UTF-8"));
        // A tag byte other than 0 or 1.
        assert!(decode_err(&[0, 2], |r| r.flags(2, "f").map(drop)).contains("tag byte 2"));
        // Trailing bytes.
        assert!(decode_err(&[0; 5], |r| r.u32("x").map(drop)).contains("1 trailing"));
        // A huge row count is refused before anything is allocated.
        assert!(
            decode_err(&[0; 8], |r| r.u64s(usize::MAX / 4, "x").map(drop)).contains("overflow")
        );
    }
}
