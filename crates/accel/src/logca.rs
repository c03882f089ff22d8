//! The LogCA performance model for hardware accelerators.
//!
//! LogCA (Altaf & Wood, ISCA 2017 — reference \[43\] of the paper) predicts
//! offload profitability from five parameters:
//!
//! * `L` — per-byte interface latency of moving data to the accelerator,
//! * `o` — fixed offload overhead (setup, dispatch),
//! * `g` — granularity: bytes of data offloaded per invocation,
//! * `C` — computational index: host time per byte of work, with work
//!   growing as `g^β` (β = 1 for streaming kernels, > 1 for e.g. sort),
//! * `A` — peak acceleration: how much faster the accelerator executes the
//!   kernel itself.
//!
//! Host time:        `T_host(g)  = C · g^β`
//! Accelerated time: `T_accel(g) = o + L·g + C·g^β / A`
//! Speedup:          `S(g) = T_host / T_accel`
//!
//! The model exposes the two quantities the paper's optimizer needs: the
//! **break-even granularity** `g₁` where offload starts paying off, and the
//! asymptotic bound `S(∞) ≤ A` (interface costs keep real speedup below
//! peak).

/// LogCA model parameters for one (kernel, device, link) combination.
///
/// # Examples
///
/// ```
/// use pspp_accel::LogCa;
/// let m = LogCa::new(1e-9, 1e-5, 5e-9, 1.0, 20.0);
/// assert!(m.speedup(1 << 20) > 1.0);      // large offloads win
/// assert!(m.speedup(64) < 1.0);           // tiny offloads lose
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogCa {
    /// Interface latency per byte (seconds/byte).
    pub l: f64,
    /// Fixed offload overhead (seconds).
    pub o: f64,
    /// Computational index: host seconds per byte at β=1.
    pub c: f64,
    /// Work-growth exponent β (1.0 linear, ~1.1 for sort, ~1.5 for GEMM
    /// when granularity is measured in matrix bytes).
    pub beta: f64,
    /// Peak acceleration A (>1).
    pub a: f64,
}

impl LogCa {
    /// Creates a model; see field docs for units.
    ///
    /// # Panics
    ///
    /// Panics if `a <= 0` or `c <= 0`.
    pub fn new(l: f64, o: f64, c: f64, beta: f64, a: f64) -> Self {
        assert!(a > 0.0, "peak acceleration must be positive");
        assert!(c > 0.0, "computational index must be positive");
        LogCa { l, o, c, beta, a }
    }

    /// Host (unaccelerated) execution time for granularity `g` bytes.
    pub fn host_time(&self, g: u64) -> f64 {
        self.c * (g as f64).powf(self.beta)
    }

    /// Accelerated execution time for granularity `g` bytes, including the
    /// interface (`o + L·g`).
    pub fn accel_time(&self, g: u64) -> f64 {
        self.o + self.l * g as f64 + self.host_time(g) / self.a
    }

    /// Speedup `T_host / T_accel` at granularity `g`.
    pub fn speedup(&self, g: u64) -> f64 {
        self.host_time(g) / self.accel_time(g)
    }

    /// Asymptotic speedup as `g → ∞`.
    ///
    /// For β > 1 compute dominates the linear interface term and the bound
    /// is `A`; for β = 1 it is `C·A / (C + L·A)`.
    pub fn asymptotic_speedup(&self) -> f64 {
        if self.beta > 1.0 {
            self.a
        } else {
            self.c * self.a / (self.c + self.l * self.a)
        }
    }

    /// Break-even granularity `g₁`: smallest g with speedup ≥ 1, found by
    /// bisection over `[1, hi]`. Returns `None` if offload never breaks
    /// even below `hi` bytes.
    pub fn break_even(&self, hi: u64) -> Option<u64> {
        self.granularity_for_speedup(1.0, hi)
    }

    /// Smallest granularity achieving `target` speedup (e.g. `A/2`), or
    /// `None` if unreachable below `hi` bytes.
    pub fn granularity_for_speedup(&self, target: f64, hi: u64) -> Option<u64> {
        if self.speedup(hi) < target {
            return None;
        }
        let (mut lo, mut hi) = (1u64, hi);
        if self.speedup(lo) >= target {
            return Some(lo);
        }
        // Speedup is monotone increasing in g for beta >= 1 (interface
        // costs amortize), so bisection is sound.
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.speedup(mid) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    /// Sweeps speedup over logarithmically spaced granularities; used by
    /// experiment E10 to print the LogCA curves.
    pub fn sweep(&self, lo: u64, hi: u64, points: usize) -> Vec<(u64, f64)> {
        assert!(lo >= 1 && hi > lo && points >= 2);
        let llo = (lo as f64).ln();
        let lhi = (hi as f64).ln();
        (0..points)
            .map(|i| {
                let g = (llo + (lhi - llo) * i as f64 / (points - 1) as f64)
                    .exp()
                    .round() as u64;
                let g = g.max(1);
                (g, self.speedup(g))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LogCa {
        // FPGA-ish: 10 us setup, PCIe ~12 GB/s => L ~ 8.3e-11 s/B,
        // host does 1ns of work per byte, accelerator is 20x.
        LogCa::new(8.3e-11, 10e-6, 1e-9, 1.0, 20.0)
    }

    #[test]
    fn speedup_monotone_in_granularity() {
        let m = model();
        let mut last = 0.0;
        for g in [64, 1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26] {
            let s = m.speedup(g);
            assert!(s > last);
            last = s;
        }
    }

    #[test]
    fn break_even_exists_and_is_tight() {
        let m = model();
        let g1 = m.break_even(1 << 30).expect("should break even");
        assert!(m.speedup(g1) >= 1.0);
        assert!(m.speedup(g1.saturating_sub(g1 / 10).max(1)) < 1.0 || g1 == 1);
    }

    #[test]
    fn asymptote_bounds_speedup() {
        let m = model();
        let bound = m.asymptotic_speedup();
        assert!(bound <= m.a);
        assert!(m.speedup(1 << 34) <= bound * 1.001);
    }

    #[test]
    fn no_break_even_for_weak_accelerator() {
        // A=1.05 with a slow link never wins.
        let m = LogCa::new(1e-8, 1e-3, 1e-9, 1.0, 1.05);
        assert_eq!(m.break_even(1 << 30), None);
    }

    #[test]
    fn superlinear_kernels_approach_peak() {
        let m = LogCa::new(8.3e-11, 10e-6, 1e-12, 1.4, 50.0);
        assert!((m.asymptotic_speedup() - 50.0).abs() < 1e-9);
        // The linear interface term still bites at 1 GiB, but the compute
        // term (g^1.4) is pulling speedup toward A.
        assert!(m.speedup(1 << 30) > 20.0);
        assert!(m.speedup(1u64 << 40) > 40.0);
    }

    #[test]
    fn sweep_is_log_spaced_and_sized() {
        let pts = model().sweep(64, 1 << 26, 16);
        assert_eq!(pts.len(), 16);
        assert_eq!(pts[0].0, 64);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
