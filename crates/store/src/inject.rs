//! Seeded artifact corruption, in the spirit of
//! `borges-resilience`'s `FaultInjector`: every mutilation is a pure
//! function of `(seed, draw index)`, so a failing corruption case
//! replays exactly from its seed.
//!
//! The three physical damage classes the store must survive:
//!
//! - **truncation** — a crash mid-write (only reachable under the
//!   destination name if the crash-safe protocol is bypassed) or a
//!   short copy;
//! - **bit/byte flips** — silent media or transfer corruption;
//! - **torn rename** — a crash between staging and rename: the
//!   destination is simply absent, a stray staging sibling remains.

use borges_types::hash::splitmix64;
use std::path::{Path, PathBuf};

/// A deterministic stream of corruption decisions.
#[derive(Debug, Clone)]
pub struct Corruptor {
    state: u64,
}

impl Corruptor {
    /// A corruptor whose every draw is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Corruptor {
            state: splitmix64(seed),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// A draw in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty draw range");
        (self.next() % bound as u64) as usize
    }

    /// `bytes` cut at a seeded point strictly inside the file.
    pub fn truncate(&mut self, bytes: &[u8]) -> Vec<u8> {
        let cut = self.below(bytes.len());
        bytes[..cut].to_vec()
    }

    /// Flips one seeded bit in place; returns `(byte index, bit)`.
    pub fn flip_bit(&mut self, bytes: &mut [u8]) -> (usize, u8) {
        let index = self.below(bytes.len());
        let bit = self.below(8) as u8;
        bytes[index] ^= 1 << bit;
        (index, bit)
    }

    /// Replaces one seeded byte with a guaranteed-different value;
    /// returns the byte index.
    pub fn flip_byte(&mut self, bytes: &mut [u8]) -> usize {
        let index = self.below(bytes.len());
        let delta = 1 + self.below(255) as u8;
        bytes[index] = bytes[index].wrapping_add(delta);
        index
    }
}

/// Simulates the torn-rename crash window for an artifact that was
/// *about* to land at `dest`: a seeded prefix of `bytes` sits in the
/// crash-safe protocol's staging sibling, and `dest` itself does not
/// exist. Returns the staging path. The loader must classify `dest`
/// as [`crate::StoreError::Missing`] and never read the stray sibling.
pub fn simulate_torn_rename(
    corruptor: &mut Corruptor,
    dest: &Path,
    bytes: &[u8],
) -> std::io::Result<PathBuf> {
    if dest.exists() {
        std::fs::remove_file(dest)?;
    }
    let staging = crate::atomic::staging_path(dest)?;
    let partial = corruptor.truncate(bytes);
    std::fs::write(&staging, partial)?;
    Ok(staging)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let data = vec![0u8; 4096];
        let mut a = Corruptor::new(42);
        let mut b = Corruptor::new(42);
        for _ in 0..64 {
            assert_eq!(a.truncate(&data).len(), b.truncate(&data).len());
        }
        let mut x = data.clone();
        let mut y = data.clone();
        assert_eq!(a.flip_bit(&mut x), b.flip_bit(&mut y));
        assert_eq!(x, y);
    }

    #[test]
    fn flips_always_change_the_bytes() {
        let mut corruptor = Corruptor::new(7);
        let clean = vec![0x5Au8; 257];
        for _ in 0..256 {
            let mut copy = clean.clone();
            corruptor.flip_bit(&mut copy);
            assert_ne!(copy, clean);
            let mut copy = clean.clone();
            corruptor.flip_byte(&mut copy);
            assert_ne!(copy, clean);
        }
    }

    #[test]
    fn truncation_is_strict() {
        let mut corruptor = Corruptor::new(11);
        let data = vec![1u8; 100];
        for _ in 0..256 {
            assert!(corruptor.truncate(&data).len() < data.len());
        }
    }
}
