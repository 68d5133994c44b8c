//! The hasher of the maps keyed by a tuple id or an attribute value, which
//! bulk builds, statistics and range scans hit once per alternative.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by a `u64` id or value.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of `u64` ids or values.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// One 64 × 64 → 128-bit multiply per `u64` key, its two halves folded
/// together, from a seed drawn once per process from [`RandomState`]:
/// every output bit depends on every key bit, and iteration order stays as
/// unpredictable as with the std SipHash (every serialisation of these
/// maps sorts its keys).
#[derive(Debug, Clone, Copy)]
pub struct IdHasher(u64);

impl Default for IdHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        IdHasher(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ids_spread_over_the_low_bits() {
        let s = BuildHasherDefault::<IdHasher>::default();
        // Keys that differ in their low bits only, or in their high bits
        // only, both reach most of the low bits a table indexes by.
        for shift in [0, 52] {
            let buckets: IdSet<u64> = (0..4096u64)
                .map(|id| s.hash_one(id << shift) & 1023)
                .collect();
            assert!(buckets.len() > 900, "{} of 1024 buckets", buckets.len());
        }
        let m: IdMap<u64, u64> = (0..1000).map(|v| (v * 37, v)).collect();
        assert!((0..1000).all(|v| m[&(v * 37)] == v));
    }
}
