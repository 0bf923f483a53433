//! A cheap deterministic hasher for maps keyed by process-local ids
//! ([`VarId`](crate::VarId), `tvm_te::OpId`, tuples and enums of them).
//!
//! Lowering and cost analysis look such a key up at every variable, stage
//! and buffer they touch, and std's `RandomState` runs SipHash-1-3 over
//! every one. [`IdHasher`] is the multiply-rotate mix of rustc's
//! `FxHasher`: one rotate, xor and multiply per word, the same hash in
//! every process. It is not DoS-resistant, so maps keyed by names or bytes
//! from outside the process keep `RandomState`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time multiply-rotate hasher (the `FxHasher` recipe).
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`IdHasher`]s; every map built with it hashes alike.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;
/// A `HashMap` keyed by ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;
/// A `HashSet` of ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarId;
    use std::hash::BuildHasher;

    fn hash_of(id: VarId) -> u64 {
        IdBuildHasher::default().hash_one(id)
    }

    #[test]
    fn distinct_ids_hash_apart() {
        let all: HashSet<u64> = (0..65536).map(|i| hash_of(VarId(i))).collect();
        assert_eq!(all.len(), 65536);
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_of(VarId(12345)), hash_of(VarId(12345)));
        let a = IdBuildHasher::default().hash_one((VarId(1), VarId(2)));
        let b = IdBuildHasher::default().hash_one((VarId(2), VarId(1)));
        assert_ne!(a, b, "tuple fields are mixed in order");
    }

    /// A 4,096-entry table over a run of consecutive ids (the shape id
    /// counters hand out) lands one id per bucket: hashbrown indexes
    /// buckets by the low bits, and multiplying by an odd constant is a
    /// bijection on them. Its 7-bit tag (the top bits) is spread too.
    #[test]
    fn consecutive_ids_fill_buckets_without_clustering() {
        for start in [0usize, 1 << 20, 123_457] {
            let mut load = vec![0u32; 4096];
            let mut tags = [0u32; 128];
            for i in start..start + 4096 {
                let h = hash_of(VarId(i));
                load[(h & 4095) as usize] += 1;
                tags[(h >> 57) as usize] += 1;
            }
            assert!(
                load.iter().all(|&n| n == 1),
                "bucket collision from {start}"
            );
            assert!(
                tags.iter().all(|&n| n > 0 && n <= 64),
                "tag clustering from {start}"
            );
        }
        // The map itself: 4,096 entries, every one found again.
        let mut m: IdMap<VarId, usize> = IdMap::default();
        for i in 0..4096 {
            m.insert(VarId(i * 7 + 3), i);
        }
        assert_eq!(m.len(), 4096);
        assert!((0..4096).all(|i| m[&VarId(i * 7 + 3)] == i));
    }
}
