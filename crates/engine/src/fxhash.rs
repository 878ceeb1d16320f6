//! A fixed, fast hasher for simulator-internal tables.
//!
//! std's `HashMap` hashes with SipHash keyed per process: resistant to
//! crafted keys, but several times slower than needed for keys the
//! simulator generates itself (request ids, block addresses, page
//! numbers). [`FxHasher`] is a rustc-hash-style word hasher: each word
//! enters the state by rotate-xor-multiply, and [`finish`](Hasher::finish)
//! folds the 128-bit product of the state so that every input bit reaches
//! the low bits the table indexes by. A multiply alone only carries bits
//! upward, which would leave the namespace and owner bits at the top of a
//! `ReqId` out of the bucket index.
//!
//! Tables keyed by outside input (tenant names, JSON) keep std's
//! `RandomState`; see DESIGN.md §7.
//!
//! ```
//! use pei_engine::FastMap;
//!
//! let mut m: FastMap<u64, &str> = FastMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed by [`FxHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// The rustc-hash 2 multiplier.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Deterministic rotate-xor-multiply hasher; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v.into());
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v.into());
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v.into());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let full = u128::from(self.hash) * u128::from(K);
        (full as u64) ^ ((full >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pei_types::mem::ns;
    use pei_types::{BlockAddr, ReqId};
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    /// Bits a 4096-bucket table indexes by.
    const LOW: u64 = (1 << 12) - 1;

    #[test]
    fn namespace_and_owner_reach_the_low_bits() {
        let mut ids = Vec::new();
        for space in [ns::CORE, ns::HOST_PCU, ns::L3, ns::PMU, ns::MEM_PCU] {
            for owner in 0..16 {
                ids.push(ReqId::tagged(space, owner, 42));
            }
        }
        let mut low: Vec<u64> = ids.iter().map(|&id| hash(id) & LOW).collect();
        low.sort_unstable();
        low.dedup();
        // 80 ids in 4096 buckets: a uniform hash collides on about one
        // pair; a plain multiply would put all 80 in one bucket.
        assert!(low.len() >= 76, "{} distinct low-bit values", low.len());
    }

    #[test]
    fn power_of_two_strides_spread() {
        for shift in [0, 6, 12, 20] {
            let mut low: Vec<u64> = (0..1024u64)
                .map(|i| hash(BlockAddr(0x4_0000 + (i << shift))) & LOW)
                .collect();
            low.sort_unstable();
            low.dedup();
            // A uniform hash fills about 4096 * (1 - e^(-1/4)) = 906
            // buckets with 1024 keys; unmixed, a 2^12 stride fills one.
            assert!(low.len() >= 860, "stride 2^{shift}: {} distinct", low.len());
        }
    }

    #[test]
    fn fixed_across_instances_and_byte_writes() {
        assert_eq!(hash(ReqId(5)), hash(ReqId(5)));
        assert_ne!(hash(ReqId(5)), hash(ReqId(6)));
        assert_ne!(hash("page"), hash("pages"));
        let mut set: FastSet<(usize, u64)> = FastSet::default();
        assert!(set.insert((1, 2)) && !set.insert((1, 2)));
    }
}
