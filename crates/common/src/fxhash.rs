//! A fast, deterministic hasher for hot-path maps.
//!
//! The simulator's inner loop keys several maps by [`BlockAddr`]-like
//! small integers (per-block busy windows, pending writebacks, channel
//! FIFO clocks). `std`'s default SipHash is DoS-resistant but costs tens
//! of cycles per lookup and randomizes iteration order per map instance;
//! neither property is wanted inside a deterministic single-process
//! simulation. This module hand-rolls the FxHash multiply-xor scheme
//! (the rustc/Firefox hasher) with a fixed seed: a few cycles per word,
//! identical iteration order on every run.
//!
//! Never use these maps on untrusted external input — there is no
//! collision resistance by design.
//!
//! # Examples
//!
//! ```
//! use stashdir_common::fxhash::FxHashMap;
//!
//! let mut busy: FxHashMap<u64, u64> = FxHashMap::default();
//! busy.insert(42, 100);
//! assert_eq!(busy.get(&42), Some(&100));
//! ```
//!
//! [`BlockAddr`]: crate::BlockAddr

use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplication constant (64-bit golden-ratio mix, as used
/// by rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Bits to rotate the accumulator by before each mix.
const ROTATE: u32 = 5;

/// A `HashMap` keyed with [`FxHasher`] (deterministic, fast, not
/// DoS-resistant).
#[expect(
    clippy::disallowed_types,
    reason = "the fixed-seed hasher is what makes the std map deterministic"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "the fixed-seed hasher is what makes the std set deterministic"
)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// `BuildHasher` producing [`FxHasher`]s; zero-sized, fixed seed.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The word-at-a-time multiply-xor hasher.
///
/// Consumes input a `u64` word (or tail bytes) at a time:
/// `hash = (hash.rotate_left(5) ^ word) * SEED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_instances() {
        // SipHash's RandomState would fail this between two maps; the
        // simulator relies on it for reproducible iteration order.
        assert_eq!(hash_of(&0xDEAD_BEEFu64), hash_of(&0xDEAD_BEEFu64));
        let a: u64 = FxBuildHasher::default().hash_one(1234u64);
        let b: u64 = FxBuildHasher::default().hash_one(1234u64);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_keys_spread() {
        // Sequential block addresses (the common key pattern) must not
        // collapse onto one bucket chain.
        let hashes: std::collections::BTreeSet<u64> = (0..1024u64).map(|k| hash_of(&k)).collect();
        assert_eq!(hashes.len(), 1024, "sequential keys all hash distinctly");
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u16, u16), u64> = FxHashMap::default();
        for i in 0..100u16 {
            m.insert((i, i.wrapping_add(1)), i as u64 * 3);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(7, 8)), Some(&21));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(9);
        assert!(s.contains(&9));
    }

    #[test]
    fn iteration_order_is_reproducible() {
        let build = || {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for i in 0..256u64 {
                m.insert(i * 17, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build(), "fixed seed fixes iteration order");
    }

    #[test]
    fn tail_bytes_are_hashed() {
        // &str hashing goes through write() with a non-multiple-of-8 tail.
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
    }
}
