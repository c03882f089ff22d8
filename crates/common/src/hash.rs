//! The hasher of the relational hash kernels (join build/probe,
//! group-by): multiply-rotate, one multiplication per word.
//!
//! SipHash, the standard library's default, spends more time hashing an
//! eight-byte join key than the probe spends on everything else. Its
//! protection against chosen-collision keys buys nothing here: the maps
//! it guards live for one operator call over rows the engine already
//! holds, and no output order depends on the hash (groups come out
//! first-seen, join chains in build order).

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// An FxHash-style hasher: `state = (state.rotl(5) ^ word) * K` per
/// 64-bit word. Deterministic — no per-process seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

/// [`FxHasher`] as a map's `BuildHasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    /// The hash of the values `parts` yields, in order.
    pub fn hash_all<T: Hash>(parts: impl IntoIterator<Item = T>) -> u64 {
        let mut hasher = FxHasher::default();
        parts.into_iter().for_each(|p| p.hash(&mut hasher));
        hasher.finish()
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for &w in words {
            self.add(u64::from_le_bytes(w));
        }
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiplication leaves its entropy in the high bits; the map
    /// picks buckets by the low ones.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn equal_values_hash_alike_and_near_keys_spread() {
        let h = |v: &Value| FxHasher::hash_all([v]);
        assert_eq!(h(&Value::from("abc")), h(&Value::from("abc")));
        assert_ne!(h(&Value::from("abc")), h(&Value::from("abd")));
        // A string's tail shorter than a word still counts.
        assert_ne!(h(&Value::from("abcdefgh")), h(&Value::from("abcdefghi")));
        assert_ne!(h(&Value::Int(1)), h(&Value::Timestamp(1)));
        // Sequential keys land in distinct low-bit buckets often enough
        // for an open-addressed map: no bucket of 1 024 takes more than
        // a handful of 1 024 consecutive ints.
        let mut buckets = [0u32; 1024];
        for i in 0..1024i64 {
            buckets[(h(&Value::Int(i)) & 1023) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n <= 8), "{buckets:?}");
    }

    #[test]
    fn hash_all_is_order_sensitive() {
        let (a, b) = (Value::Int(1), Value::Int(2));
        assert_ne!(FxHasher::hash_all([&a, &b]), FxHasher::hash_all([&b, &a]));
        assert_eq!(FxHasher::hash_all([&a, &b]), FxHasher::hash_all([&a, &b]));
    }
}
