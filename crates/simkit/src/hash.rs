//! A fast, deterministic hasher for simulation-internal maps.
//!
//! The standard library's default hasher is a DoS-resistant SipHash with
//! a per-process random seed. Simulation state tables (block caches, fd
//! tables) hash small fixed-size keys millions of times per simulated
//! day and face no adversarial input, so the collision resistance is
//! pure overhead — and the random seed works against reproducibility.
//! [`FastHasher`] is a multiply-rotate hash in the FxHash family: a few
//! cycles per word, identical across runs and platforms of the same
//! endianness.
//!
//! Use [`FastMap`] / [`FastSet`] instead of `HashMap` / `HashSet` for
//! hot internal tables. Do not use them for anything fed by external
//! untrusted input.

#[expect(
    clippy::disallowed_types,
    reason = "this module defines the deterministic replacements for the std maps"
)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast non-cryptographic hasher (FxHash-style multiply-rotate).
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Deterministic builder for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` keyed with [`FastHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "explicit FastBuildHasher parameter"
)]
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `HashSet` keyed with [`FastHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "explicit FastBuildHasher parameter"
)]
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&(7u64, 9u64)), hash_of(&(7u64, 9u64)));
        assert_ne!(hash_of(&(7u64, 9u64)), hash_of(&(9u64, 7u64)));
    }

    #[test]
    fn map_basics() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.len(), 2);
        let mut s: FastSet<u64> = FastSet::default();
        s.insert(42);
        assert!(s.contains(&42));
    }

    #[test]
    fn distributes_small_keys() {
        // Sequential keys must not collide into a handful of buckets.
        let mut hashes: Vec<u64> = (0u64..64).map(|i| hash_of(&i)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 64);
    }

    #[test]
    fn byte_slices_with_tails() {
        // Differing tails (length < 8) must hash differently.
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2][..]));
        assert_ne!(hash_of(&[0u8; 9][..]), hash_of(&[0u8; 10][..]));
    }
}
