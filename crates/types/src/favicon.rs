//! Favicon content hashes.
//!
//! The favicon classifier (§4.3.3 of the paper) groups final URLs whose
//! sites serve byte-identical favicons. The grouping key is a content hash
//! of the favicon bytes; [`FaviconHash`] implements it with FNV-1a (64-bit)
//! — fast, dependency-free, and collision-safe at the paper's scale
//! (≈14,516 unique favicons; the 64-bit birthday bound is ~10⁹).
//!
//! The hash is **not** cryptographic; the threat model is accidental
//! collision between honest favicons, not adversarial preimages.

use crate::hash::fnv1a;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 64-bit FNV-1a content hash identifying a favicon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FaviconHash(u64);

impl FaviconHash {
    /// Hashes raw favicon bytes.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        FaviconHash(fnv1a(bytes))
    }

    /// Wraps a precomputed hash (used by the simulator, which synthesizes
    /// favicon identities without materializing image bytes).
    pub const fn from_raw(raw: u64) -> Self {
        FaviconHash(raw)
    }

    /// The raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for FaviconHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "favicon:{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_bytes_hash_identically() {
        let a = FaviconHash::of_bytes(b"claro-logo-v2");
        let b = FaviconHash::of_bytes(b"claro-logo-v2");
        assert_eq!(a, b);
    }

    #[test]
    fn different_bytes_hash_differently() {
        let a = FaviconHash::of_bytes(b"claro-logo-v2");
        let b = FaviconHash::of_bytes(b"bootstrap-default");
        assert_ne!(a, b);
    }

    #[test]
    fn empty_input_is_the_fnv_offset() {
        assert_eq!(FaviconHash::of_bytes(&[]).raw(), crate::hash::FNV1A_OFFSET);
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        assert_eq!(FaviconHash::of_bytes(b"a").raw(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn display_is_hex() {
        let h = FaviconHash::from_raw(0xdead_beef);
        assert_eq!(h.to_string(), "favicon:00000000deadbeef");
    }

    #[test]
    fn order_independence_is_not_assumed() {
        let ab = FaviconHash::of_bytes(b"ab");
        let ba = FaviconHash::of_bytes(b"ba");
        assert_ne!(ab, ba);
    }
}
