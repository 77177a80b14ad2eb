//! A deterministic, allocation-free fast hasher for hot-path maps.
//!
//! `std::collections::HashMap`'s default `RandomState` seeds SipHash
//! from process entropy: robust against adversarial keys, but (a) slow
//! for the tiny integer keys the simulator hashes millions of times per
//! run, and (b) a source of run-to-run iteration-order nondeterminism.
//! The simulator's keys are trusted (dense ids it mints itself), so we
//! use the Fx multiply-rotate construction (rustc's hasher): one
//! `rotate_left` + XOR + multiply per word, fixed seed, identical
//! results on every run and platform. `finish` folds the state's wide
//! product so that the low bits `HashMap` picks buckets with depend on
//! the whole key (see [`FxHasher::finish`]).
//!
//! Use [`FxHashMap`] / [`FxHashSet`] wherever a per-tuple map is needed
//! and the keys are engine-generated.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fx's odd multiplicative constant (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Rotation applied before each word is mixed in.
const ROTATE: u32 = 5;

/// The Fx multiply-rotate hasher: fast, deterministic, non-cryptographic.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// Creates a hasher with the fixed (zero) initial state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Folds the state's 128-bit product with `SEED`: high half XOR
    /// low half.
    ///
    /// Bit `k` of a product depends only on bits `0..=k` of its
    /// factors, so the raw state's low bits see only the low bits of the
    /// last word written. std's `HashMap` picks the bucket from those low
    /// bits: a packed `(from << 32) | to` key would start probing at a
    /// bucket chosen by `to` alone, and every pair sharing a destination
    /// would pile up there. The high half of the wide product depends on
    /// every state bit, so after the fold so does every bit of the hash.
    #[inline]
    fn finish(&self) -> u64 {
        let wide = u128::from(self.hash) * u128::from(SEED);
        (wide as u64) ^ ((wide >> 64) as u64)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
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

/// Builds [`FxHasher`]s; `Default` yields the fixed seed, so maps built
/// from it iterate identically across runs of the same program.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the deterministic Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the deterministic Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use std::hash::BuildHasher;

    /// Straight-line reference implementation of the same construction,
    /// written independently of the chunked `write` above: state is
    /// folded one explicitly-assembled little-endian word at a time.
    fn reference_hash_bytes(bytes: &[u8]) -> u64 {
        let mut state: u64 = 0;
        let mut i = 0;
        while i < bytes.len() {
            let mut word: u64 = 0;
            for (j, &b) in bytes[i..bytes.len().min(i + 8)].iter().enumerate() {
                word |= u64::from(b) << (8 * j);
            }
            state = (state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
            i += 8;
        }
        let wide = u128::from(state) * u128::from(SEED);
        (wide as u64) ^ ((wide >> 64) as u64)
    }

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let inputs: &[&[u8]] = &[b"", b"a", b"hello world", b"0123456789abcdef0"];
        for input in inputs {
            assert_eq!(hash_bytes(input), hash_bytes(input));
        }
        // And across builder-produced hashers (what HashMap actually uses).
        let b = FxBuildHasher::default();
        assert_eq!(b.hash_one(42u64), b.hash_one(42u64));
        assert_eq!(b.hash_one("word"), b.hash_one("word"));
    }

    #[test]
    fn agrees_with_reference_on_random_inputs() {
        let mut rng = DetRng::seed_from(0xf00d);
        for len in 0..64 {
            for _ in 0..16 {
                let bytes: Vec<u8> = (0..len).map(|_| (rng.below(256)) as u8).collect();
                assert_eq!(
                    hash_bytes(&bytes),
                    reference_hash_bytes(&bytes),
                    "len {len}, bytes {bytes:?}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_reference_on_collisions_by_construction() {
        // The construction rotates by 5 and multiplies; inputs built to
        // cancel in the low bits (equal after `x ^ rot(state)`) are the
        // classic Fx collision shape. Whatever the outcome, both
        // implementations must agree bit-for-bit.
        let pairs: &[(&[u8], &[u8])] = &[
            // Same word split across write boundaries vs one write:
            // chunking is part of the contract, so these may differ from
            // each other but must match the reference per-input.
            (b"\x00\x00\x00\x00\x00\x00\x00\x00", b"\x00"),
            (b"\x01\x00\x00\x00\x00\x00\x00\x00", b"\x01"),
            // Trailing zero bytes are absorbed by zero-padding: a
            // genuine engineered collision for byte-stream hashing.
            (b"ab", b"ab\x00"),
            (b"ab", b"ab\x00\x00\x00"),
        ];
        for (a, b) in pairs {
            assert_eq!(hash_bytes(a), reference_hash_bytes(a));
            assert_eq!(hash_bytes(b), reference_hash_bytes(b));
        }
        // The zero-padding pairs collide by construction; pin that too.
        assert_eq!(hash_bytes(b"ab"), hash_bytes(b"ab\x00"));
    }

    #[test]
    fn integer_writes_match_wordwise_folding() {
        let mut a = FxHasher::new();
        a.write_u64(7);
        a.write_u64(9);
        let mut b = FxHasher::new();
        b.write_u64(7);
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
        // u32/usize promote to one word each.
        let mut c = FxHasher::new();
        c.write_u32(7);
        let mut d = FxHasher::new();
        d.write_u64(7);
        assert_eq!(c.finish(), d.finish());
    }

    #[test]
    fn map_iteration_order_is_stable_across_builds() {
        let build = || {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for i in 0..1000 {
                m.insert(i * 31, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    /// Distinct values of `hash & mask` over `keys`: the buckets std's
    /// `HashMap` (SwissTable) would start probing at in a table of
    /// `mask + 1` buckets.
    fn bucket_starts(keys: impl Iterator<Item = u64>, mask: u64) -> usize {
        let b = FxBuildHasher::default();
        keys.map(|k| b.hash_one(k) & mask)
            .collect::<FxHashSet<u64>>()
            .len()
    }

    #[test]
    fn distributes_dense_ids() {
        // Dense sequential ids (executor ids, slot ids) must spread over
        // the low (bucket) bits like random keys would (4,096 random
        // keys hit 1 - 1/e ≈ 63% of 4,096 buckets, ~2,589), and over
        // the top 7 bits SwissTable keeps as each slot's tag.
        let starts = bucket_starts(0..4096, 0xfff);
        assert!(starts > 2_400, "only {starts} distinct bucket starts");
        let b = FxBuildHasher::default();
        let tags: FxHashSet<u64> = (0u64..4096).map(|i| b.hash_one(i) >> 57).collect();
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn bucket_bits_see_the_whole_packed_pair_key() {
        // The monitor and the simulator key pair traffic by
        // `(from << 32) | to`, and every executor acks to a few shared
        // ackers, so thousands of keys differ only in `from`. 65,536
        // random keys hit 1 - e^(-1/2) ≈ 39% of 131,072 buckets, ~51.6k;
        // an unfolded Fx hash gives 16 (one per destination).
        let mask = (1 << 17) - 1;
        let shapes: [(&str, Vec<u64>); 4] = [
            ("4096 senders x 16 receivers", grid(0..4096, 0..16)),
            ("256 x 256", grid(0..256, 0..256)),
            ("one sender", grid(7..8, 0..65_536)),
            (
                "chain i -> i+1",
                (0..65_536).map(|i| (i << 32) | (i + 1)).collect(),
            ),
        ];
        for (shape, keys) in shapes {
            let starts = bucket_starts(keys.into_iter(), mask);
            assert!(
                starts > 49_000,
                "{shape}: only {starts} distinct bucket starts"
            );
        }
    }

    fn grid(from: std::ops::Range<u64>, to: std::ops::Range<u64>) -> Vec<u64> {
        from.flat_map(|f| to.clone().map(move |t| (f << 32) | t))
            .collect()
    }

    #[test]
    fn top_input_bit_reaches_the_bucket_bits() {
        // Flipping the last word's top bit must reach the bucket bits
        // and the tag (before the fold it reached only bit 63).
        let b = FxBuildHasher::default();
        let (a, z) = (b.hash_one(5u64), b.hash_one(5u64 | 1 << 63));
        assert_ne!(a & 0xffff, z & 0xffff);
        assert_ne!(a >> 57, z >> 57);
    }

    #[test]
    fn hash_trait_routes_through_hasher() {
        let b = FxBuildHasher::default();
        let via_trait = b.hash_one(42u64);
        let mut h2 = FxHasher::new();
        h2.write_u64(42);
        assert_eq!(via_trait, h2.finish());
    }
}
