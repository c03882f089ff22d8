//! Deterministic random number generation for synthetic data and search.
//!
//! Every simulated number in EXPERIMENTS.md must be reproducible, so all
//! randomness in the workspace flows through explicitly seeded generators.
//! [`SplitMix64`] is a tiny, fast, well-distributed PRNG that also serves to
//! seed `rand`-based generators where distributions are needed.

/// SplitMix64 PRNG (Steele, Lea & Flood 2014).
///
/// # Examples
///
/// ```
/// use pspp_common::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection-free approximation is fine here:
        // bias is < 2^-32 for the bounds used in data generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_bounded(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `i64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn next_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo + self.next_bounded((hi - lo) as u64) as i64
    }

    /// Standard normal sample via Box–Muller.
    pub fn next_gaussian(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// `true` with probability `p`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let xs: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let ys: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(xs, ys);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut r = SplitMix64::new(2);
        for _ in 0..1000 {
            assert!(r.next_bounded(10) < 10);
        }
    }

    #[test]
    fn gaussian_mean_is_near_zero() {
        let mut r = SplitMix64::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.next_gaussian()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(4);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
